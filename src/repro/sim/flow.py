"""Flow wiring: sender endpoint, path, receiver, and the ACK channel.

A :class:`Flow` connects one sender (a congestion-control object from
:mod:`repro.protocols` or :mod:`repro.core`) to a receiver across a
forward :class:`Path` of links, with ACKs returning over a reverse path.
The flow owns sequence numbering, the per-flow stats record, and data
availability (bulk transfer by default; applications can meter bytes in
for chunked workloads).
"""

from __future__ import annotations

from typing import Callable, Protocol

from .engine import Simulator
from .link import Link
from .packet import ACK_BYTES, Packet
from .trace import FlowStats

_INF = float("inf")


class SenderProtocol(Protocol):
    """What a Flow requires of a sender object (see protocols.base)."""

    def bind(self, sim: Simulator, flow: "Flow") -> None: ...
    def start(self) -> None: ...
    def handle_ack_packet(self, ack: Packet) -> None: ...
    def on_data_available(self) -> None: ...
    def stop(self) -> None: ...


class Path:
    """An ordered sequence of links from one host to another."""

    def __init__(self, links: list[Link]):
        if not links:
            raise ValueError("a path needs at least one link")
        self.links = links

    def base_delay(self) -> float:
        """Sum of propagation delays (no queueing/serialization)."""
        return sum(link.delay_s for link in self.links)

    def min_base_delay(self) -> float:
        """Sum of the smallest propagation delay each link ever had.

        Equal to :meth:`base_delay` on static links; diverges only when a
        timeline raises a link's delay mid-run (``min_delay_s`` tracks the
        floor on links that support dynamics).
        """
        return sum(
            getattr(link, "min_delay_s", link.delay_s) for link in self.links
        )

    def send(self, packet: Packet, dst: "ReceiverLike") -> bool:
        """Send ``packet`` toward ``dst``. Returns False on first-hop drop."""
        links = self.links
        if len(links) == 1:
            return links[0].send(packet, dst)
        return links[0].send(packet, _Hop(links, 1, dst))


class ReceiverLike(Protocol):
    def receive(self, packet: Packet) -> None: ...


class _Hop:
    """Forwards a packet onto the next link of a multi-link path."""

    __slots__ = ("links", "index", "dst")

    def __init__(self, links: list[Link], index: int, dst: ReceiverLike):
        self.links = links
        self.index = index
        self.dst = dst

    def receive(self, packet: Packet) -> None:
        links = self.links
        nxt = self.index + 1
        if nxt == len(links):
            links[self.index].send(packet, self.dst)
        else:
            links[self.index].send(packet, _Hop(links, nxt, self.dst))


class FlowReceiver:
    """Receiver endpoint: records deliveries and returns one ACK per packet."""

    def __init__(self, flow: "Flow"):
        self.flow = flow
        self._ack_seq = 0

    def receive(self, packet: Packet) -> None:
        flow = self.flow
        now = flow.sim.now
        flow.stats.record_delivery(now, packet.size_bytes)
        if flow.on_delivery is not None:
            flow.on_delivery(now, packet.size_bytes)
        self._ack_seq += 1
        ack = Packet(
            flow_id=flow.flow_id,
            seq=self._ack_seq,
            size_bytes=ACK_BYTES,
            sent_time=now,
            is_ack=True,
            data_seq=packet.seq,
            data_sent_time=packet.sent_time,
            data_recv_time=now,
        )
        flow.reverse_path.send(ack, flow.sender_endpoint)
        flow.check_complete()


class _SenderEndpoint:
    """Sender-side ACK sink; dispatches to the congestion controller."""

    __slots__ = ("flow",)

    def __init__(self, flow: "Flow"):
        self.flow = flow

    def receive(self, packet: Packet) -> None:
        self.flow.sender.handle_ack_packet(packet)


class Flow:
    """One transport connection through the simulated network.

    Args:
        sim: The simulator.
        sender: Congestion-control sender (bound to this flow here).
        forward_path: Path carrying data packets.
        reverse_path: Path carrying ACKs.
        flow_id: Identifier recorded in packets and stats.
        size_bytes: Total bytes to deliver, or None for an unbounded bulk
            flow. Chunked applications use ``chunked=True`` + ``add_bytes``.
        chunked: Start with no data and let the application meter bytes in
            with :meth:`add_bytes`; the flow never auto-completes.
        start_time: Absolute simulated time at which the sender starts.
        on_complete: Callback fired once ``size_bytes`` are delivered.
        on_delivery: Callback ``(now, nbytes)`` for every delivered packet.
    """

    def __init__(
        self,
        sim: Simulator,
        sender: SenderProtocol,
        forward_path: Path,
        reverse_path: Path,
        flow_id: int = 0,
        size_bytes: int | None = None,
        start_time: float = 0.0,
        chunked: bool = False,
        on_complete: Callable[["Flow", float], None] | None = None,
        on_delivery: Callable[[float, int], None] | None = None,
    ):
        if chunked and size_bytes is not None:
            raise ValueError("chunked flows meter data via add_bytes")
        self.sim = sim
        self.sender = sender
        self.forward_path = forward_path
        self.reverse_path = reverse_path
        self.flow_id = flow_id
        self.size_bytes = size_bytes
        # Flows created mid-run (e.g. web objects) start immediately.
        self.start_time = max(start_time, sim.now)
        self.on_complete = on_complete
        self.on_delivery = on_delivery
        self.stats = FlowStats(flow_id)
        self.stats.start_time = self.start_time
        self.receiver = FlowReceiver(self)
        self.sender_endpoint = _SenderEndpoint(self)
        if sim.invariants is not None:
            sim.invariants.register_flow(self)
        self.completed = False
        self._next_seq = 0
        # Collapse flag; set by :func:`activate_fastforward` once the
        # whole flow set is known (eligibility is a property of every
        # flow sharing a link, not of one flow alone).
        # ``ff_fwd``/``ff_rev`` cache the first hop of each path — for a
        # collapsed flow (single-hop by eligibility) they are *the* links,
        # saving two path traversals per packet on the hot path.
        self.ff_collapse = False
        self.ff_fwd = forward_path.links[0]
        self.ff_rev = reverse_path.links[0]
        # Unbounded flows always have data; bounded/chunked flows meter it.
        if chunked:
            self.bytes_unsent: float = 0.0
        else:
            self.bytes_unsent = float("inf") if size_bytes is None else size_bytes

        sender.bind(sim, self)
        sim.schedule_at(self.start_time, self._start)

    # ------------------------------------------------------------------
    def _start(self) -> None:
        if not self.completed:
            self.sender.start()

    def add_bytes(self, nbytes: int) -> None:
        """Make ``nbytes`` more application data available to send."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        if self.bytes_unsent == float("inf"):
            raise RuntimeError("cannot add bytes to an unbounded flow")
        was_idle = self.bytes_unsent <= 0
        self.bytes_unsent += nbytes
        if was_idle:
            self.sender.on_data_available()

    def transmit(self, size_bytes: int) -> tuple[int, bool]:
        """Send one data packet of ``size_bytes``; returns (seq, accepted).

        ``accepted`` is False when the first hop tail-dropped the packet.
        The sender still tracks the sequence number so the drop is detected
        like any other loss (via the ACK gap).

        A collapsed flow (see :func:`activate_fastforward`) admits the
        packet to its forward link exactly as the packet chain does.
        Then, instead of scheduling the delivery, it runs the receiver
        bookkeeping and the ACK's reverse-link admission at once, at the
        delivery time, and schedules the one event of the round trip: the
        ACK arriving at the sender.  The packet takes the packet chain
        when that reverse admission could land in a different order or
        state than the chain's would: on a link that draws randomness or
        is down, at or past the reverse link's next timeline event or the
        run horizon, or while an earlier packet-chain delivery on the link
        is still pending.  One order is not reproduced: an event scheduled
        between the send and the delivery for exactly the ACK's arrival
        time fires before the ACK on the packet chain and after it here
        (see docs/PERFORMANCE.md).
        """
        sim = self.sim
        now = sim.now
        self._next_seq += 1
        seq = self._next_seq
        stats = self.stats
        stats.packets_sent += 1  # record_send, inlined
        if self.bytes_unsent != _INF:
            self.bytes_unsent -= size_bytes
        packet = Packet(
            flow_id=self.flow_id, seq=seq, size_bytes=size_bytes, sent_time=now
        )
        if not self.ff_collapse:
            return seq, self.forward_path.send(packet, self.receiver)
        fwd = self.ff_fwd
        rev = self.ff_rev
        if not (_is_static(fwd) and _is_static(rev)):
            accepted = fwd.send(packet, self.receiver)
            fwd.ff_hold_s = fwd._last_delivery
            return seq, accepted
        # A static link never loses on the wire: the result is a time or
        # a tail drop.
        deliver_at = fwd.admit(packet, now)
        if deliver_at is None:
            return seq, False
        if not (
            deliver_at < rev.ff_barrier_s
            and deliver_at < sim.horizon_s
            and now > fwd.ff_hold_s
        ):
            fwd.ff_hold_s = deliver_at
            sim.schedule_fast_at(deliver_at, self.receiver.receive, packet)
            return seq, True
        # ---- receiver (FlowReceiver.receive at deliver_at) ----
        stats.delivered_bytes += size_bytes  # record_delivery, inlined
        if stats.first_delivery is None:
            stats.first_delivery = deliver_at
        stats.last_delivery = deliver_at
        receiver = self.receiver
        receiver._ack_seq += 1
        # The skipped data-delivery dispatch, whether or not the ACK
        # also survives the reverse link.
        sim.events_virtual += 1
        ack = Packet(
            flow_id=self.flow_id,
            seq=receiver._ack_seq,
            size_bytes=ACK_BYTES,
            sent_time=deliver_at,
            is_ack=True,
            data_seq=seq,
            data_sent_time=now,
            data_recv_time=deliver_at,
        )
        ack_at = rev.admit(ack, deliver_at)
        if ack_at is not None:
            sim.schedule_fast_at(ack_at, self.sender.handle_ack_packet, ack)
        return seq, True

    def requeue_bytes(self, nbytes: int) -> None:
        """Return lost bytes to the unsent pool (models retransmission)."""
        if self.bytes_unsent != float("inf"):
            self.bytes_unsent += nbytes

    def has_data(self) -> bool:
        return self.bytes_unsent > 0 and not self.completed

    def check_complete(self) -> None:
        if (
            not self.completed
            and self.size_bytes is not None
            and self.stats.delivered_bytes >= self.size_bytes
        ):
            self.completed = True
            self.stats.end_time = self.sim.now
            self.sender.stop()
            if self.on_complete is not None:
                self.on_complete(self, self.sim.now)

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently sent data packet."""
        return self._next_seq

    def base_rtt(self) -> float:
        """Propagation-only round-trip time of the flow's paths."""
        return self.forward_path.base_delay() + self.reverse_path.base_delay()

    def min_base_rtt(self) -> float:
        """Smallest propagation-only RTT over the run (see invariants)."""
        return (
            self.forward_path.min_base_delay()
            + self.reverse_path.min_base_delay()
        )


def _is_static(link: Link) -> bool:
    """True when ``link`` neither draws randomness nor is down."""
    return (
        link.loss_model is None
        and link.noise is None
        and link.loss_rate == 0.0  # repro: noqa[no-float-eq] — gate, not math
        and not link._down
    )


def activate_fastforward(sim: Simulator, flows) -> int:
    """Collapse the packet legs of every eligible flow; returns the count.

    A collapsed flow computes each packet's data delivery and the ACK's
    reverse-link admission when the packet is sent, so one engine event
    fires per round trip instead of two.  Must be called after the
    *entire* flow set of a scenario exists: eligibility is a property of
    all flows sharing a link, not of one flow alone.  A flow may
    collapse when

    * no tracer is attached to ``sim`` (a traced run takes the packet
      chain, so traces keep per-hop ``link.*`` events in timestamp order;
      the numbers are the same either way),
    * it is unbounded and not chunked (no completion bookkeeping rides
      on delivery timing) and has no ``on_delivery`` callback,
    * its forward and reverse paths are single-hop and every link on
      them supports the analytic collapse (``can_fastforward`` — true
      for the analytic ``Link``, false for the event-based
      ``DynamicLink``, whose explicit queue cannot be advanced in
      closed form), and
    * **every** flow using its links is itself collapse-capable and uses
      the same forward and reverse link.  The collapsed ACK admission
      runs ahead of the clock; it lands in packet-chain order only when
      the reverse link's arrivals are the departures of one FIFO
      forward link.
    """
    if sim.tracer is not None:
        return 0
    flows = list(flows)

    def eligible(flow: Flow) -> bool:
        return (
            flow.bytes_unsent == _INF
            and flow.on_delivery is None
            and not flow.completed
            and len(flow.forward_path.links) == 1
            and len(flow.reverse_path.links) == 1
            and all(
                getattr(link, "can_fastforward", False)
                for link in (flow.ff_fwd, flow.ff_rev)
            )
        )

    capable = {id(flow): eligible(flow) for flow in flows}
    users: dict[int, list[Flow]] = {}
    for flow in flows:
        for link in (*flow.forward_path.links, *flow.reverse_path.links):
            users.setdefault(id(link), []).append(flow)
    link_ok = {
        link_id: all(
            capable[id(flow)]
            and flow.ff_fwd is sharing[0].ff_fwd
            and flow.ff_rev is sharing[0].ff_rev
            for flow in sharing
        )
        for link_id, sharing in users.items()
    }
    enabled = 0
    for flow in flows:
        flow.ff_collapse = (
            capable[id(flow)]
            and link_ok[id(flow.ff_fwd)]
            and link_ok[id(flow.ff_rev)]
        )
        enabled += flow.ff_collapse
    return enabled
