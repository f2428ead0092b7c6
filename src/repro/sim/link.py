"""A unidirectional link with a tail-drop FIFO buffer.

The queue is modelled analytically rather than with explicit per-packet
queue events: a link keeps the time at which its transmitter frees up
(``_busy_until``); the backlog in bytes at any instant is
``(busy_until - now) * bandwidth / 8``.  This is exact for a
work-conserving FIFO serializer and halves the event count, which matters
for pure-Python packet-level simulation.

Random (non-congestion) loss and latency noise are applied after the
queue, matching loss on the wire/wireless channel.  FIFO delivery order is
enforced even under noise, so a delay spike compresses the packets behind
it into a burst (the ACK-compression effect discussed in §5 of the paper).

Links support **mid-run dynamics** (see :mod:`repro.sim.dynamics`): the
bandwidth, propagation delay, loss model, and up/down state can all change
while a simulation runs.  A bandwidth change remaps the analytic backlog —
the residual bits keep their byte count and drain at the new rate — and a
delay change only affects packets enqueued afterwards.  The FIFO guard
covers both cases, so deliveries already in flight are never reordered.
"""

from __future__ import annotations

from typing import Protocol

from .engine import Simulator
from .noise import NoiseModel
from .packet import Packet
from ..core.rng import Rng

_NEVER = float("inf")
"""Delivery time :meth:`Link.admit` reports for a packet lost on the wire."""


class Receiver(Protocol):
    """Anything that can accept delivered packets."""

    def receive(self, packet: Packet) -> None: ...


class LossModel(Protocol):
    """Stateful per-packet wire-loss decision (see ``GilbertElliott``)."""

    def is_lost(self, rng: Rng) -> bool: ...


class LinkStats:
    """Counters exposed by every link for assertions and reports."""

    __slots__ = (
        "offered",
        "delivered",
        "tail_drops",
        "aqm_drops",
        "random_losses",
        "outage_drops",
        "rate_changes",
        "max_backlog_bytes",
    )

    def __init__(self) -> None:
        self.offered = 0
        self.delivered = 0
        self.tail_drops = 0
        # Drops decided by a queue discipline (CoDel dequeue drops,
        # head/random-drop evictions) — distinct from buffer-overflow
        # tail drops so AQM behaviour is visible in summaries.
        self.aqm_drops = 0
        self.random_losses = 0
        self.outage_drops = 0
        self.rate_changes = 0
        self.max_backlog_bytes = 0.0


class Link:
    """Unidirectional bandwidth/delay/buffer pipe.

    Args:
        sim: The owning simulator.
        bandwidth_bps: Serialization rate in bits per second.
        delay_s: One-way propagation delay in seconds.
        buffer_bytes: Tail-drop queue capacity in bytes. ``float('inf')``
            gives an unbounded queue.
        loss_rate: Probability of random (non-congestion) loss per packet.
        noise: Optional latency-noise model (see :mod:`repro.sim.noise`).
        loss_model: Optional stateful loss model (e.g. Gilbert-Elliott
            burst loss, see :mod:`repro.sim.dynamics`); when set it
            replaces the Bernoulli ``loss_rate`` draw.
        rng: RNG used for loss and noise draws.
    """

    # The analytic link can carry collapsed packet legs (its delivery
    # time is a closed-form value of ``admit``); event-based links cannot.
    can_fastforward = True

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float,
        delay_s: float,
        buffer_bytes: float = float("inf"),
        loss_rate: float = 0.0,
        noise: NoiseModel | None = None,
        loss_model: LossModel | None = None,
        rng: Rng | None = None,
        name: str = "link",
    ):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth_bps must be positive")
        if delay_s < 0:
            raise ValueError("delay_s must be non-negative")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        # Smallest propagation delay this link ever had: the RTT-floor
        # invariant must use it, because samples taken before a mid-run
        # delay increase legitimately sit below the *current* delay.
        self.min_delay_s = delay_s
        self.buffer_bytes = buffer_bytes
        self.loss_rate = loss_rate
        self.noise = noise
        self.loss_model = loss_model
        self.rng = rng if rng is not None else Rng(0)
        self.name = name
        # Source node in a topology graph ("" for standalone links);
        # carried on every ``link.*`` trace event as the hop tag.
        self.node = ""
        self.stats = LinkStats()
        self._busy_until = 0.0
        self._last_delivery = 0.0
        self._down = False
        # Collapsed-leg state (see repro.sim.flow.activate_fastforward).
        # ``ff_barrier_s`` is the next time at which this link's behaviour
        # changes (timeline event), maintained by the TimelineDriver;
        # ``inf`` on static links.  ``ff_hold_s`` is the latest delivery
        # time of a packet that took the packet chain while collapse was
        # active on this link.
        self.ff_barrier_s = float("inf")
        self.ff_hold_s = float("-inf")
        if sim.invariants is not None:
            sim.invariants.register_link(self)

    # ------------------------------------------------------------------
    def backlog_bytes(self) -> float:
        """Bytes currently queued or in transmission."""
        return max(0.0, self._busy_until - self.sim.now) * self.bandwidth_bps / 8.0

    def queueing_delay(self) -> float:
        """Waiting time a packet enqueued right now would experience."""
        return max(0.0, self._busy_until - self.sim.now)

    def queued_packets(self) -> int:
        """Packets held in an explicit queue (none: the queue is analytic)."""
        return 0

    def is_down(self) -> bool:
        """True while an outage window is active (all sends are dropped)."""
        return self._down

    # ------------------------------------------------------------------
    # Mid-run dynamics (driven by repro.sim.dynamics.TimelineDriver)
    # ------------------------------------------------------------------
    def set_bandwidth_bps(self, bandwidth_bps: float) -> None:
        """Change the serialization rate mid-run.

        The analytic queue assumes a constant rate, so the residual
        backlog must be remapped: the bits not yet serialized keep their
        count and drain at the new rate, i.e. ``busy_until`` becomes
        ``now + residual_bits / new_rate``.  Byte occupancy is invariant
        under the remap, so the buffer bound still holds.  Deliveries
        already scheduled keep their times; the FIFO guard in
        :meth:`send` prevents later packets from overtaking them when
        the rate increases.
        """
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth_bps must be positive")
        now = self.sim.now
        residual_bits = max(0.0, self._busy_until - now) * self.bandwidth_bps
        self.bandwidth_bps = bandwidth_bps
        self._busy_until = now + residual_bits / bandwidth_bps
        self.stats.rate_changes += 1

    def set_delay_s(self, delay_s: float) -> None:
        """Change the propagation delay for packets enqueued from now on."""
        if delay_s < 0:
            raise ValueError("delay_s must be non-negative")
        self.delay_s = delay_s
        if delay_s < self.min_delay_s:
            self.min_delay_s = delay_s

    def set_down(self, down: bool) -> None:
        """Begin (True) or end (False) an outage window.

        While down, every offered packet is dropped (``outage_drops``).
        Packets accepted before the outage are already past the
        serializer in the analytic model and still arrive.
        """
        self._down = bool(down)

    # ------------------------------------------------------------------
    def send(self, packet: Packet, dst: Receiver) -> bool:
        """Enqueue ``packet`` for delivery to ``dst``.

        Returns True if the packet was accepted (it may still be randomly
        lost on the wire) and False on a tail drop or outage drop.
        """
        deliver_at = self.admit(packet, self.sim.now)
        if deliver_at is None:
            return False
        if deliver_at != _NEVER:
            # Deliveries are fire-and-forget and dominate the heap; the
            # fast path skips the cancellable-Event allocation entirely.
            self.sim.schedule_fast_at(deliver_at, dst.receive, packet)
        return True

    def admit(self, packet: Packet, at_s: float) -> "float | None":
        """Offer ``packet`` to the link at time ``at_s``; no event is scheduled.

        The link's one admission routine: counters, queue update, loss
        and noise draws and ``link.*`` trace events.  Returns the delivery
        time, ``inf`` when the packet was accepted but lost on the wire,
        or ``None`` on a tail or outage drop.  :meth:`send` schedules the
        delivery.  The collapsed packet legs of ``Flow.transmit`` (see
        :func:`repro.sim.flow.activate_fastforward`) use the value
        directly, the ACK leg with ``at_s`` ahead of the clock.
        """
        tracer = self.sim.tracer
        stats = self.stats
        stats.offered += 1
        if self._down:
            stats.outage_drops += 1
            if tracer is not None:
                tracer.emit(
                    "link.drop",
                    at_s,
                    flow=packet.flow_id,
                    link=self.name,
                    node=self.node,
                    reason="outage",
                    seq=packet.seq,
                )
            return None
        size = packet.size_bytes
        busy = self._busy_until
        backlog = (busy - at_s) * self.bandwidth_bps / 8.0 if busy > at_s else 0.0
        # Epsilon absorbs float error in the analytic backlog computation.
        if backlog + size > self.buffer_bytes + 1e-6:
            stats.tail_drops += 1
            if tracer is not None:
                tracer.emit(
                    "link.drop",
                    at_s,
                    flow=packet.flow_id,
                    link=self.name,
                    node=self.node,
                    reason="tail",
                    seq=packet.seq,
                    backlog_bytes=backlog,
                )
            return None
        # Peak occupancy includes the packet just accepted.
        if backlog + size > stats.max_backlog_bytes:
            stats.max_backlog_bytes = backlog + size

        start = busy if busy > at_s else at_s
        self._busy_until = busy = start + size * 8.0 / self.bandwidth_bps
        if tracer is not None:
            tracer.emit(
                "link.enqueue",
                at_s,
                flow=packet.flow_id,
                link=self.name,
                node=self.node,
                seq=packet.seq,
                size_bytes=size,
                backlog_bytes=backlog + size,
            )

        if self.loss_model is not None:
            # The packet still consumed transmitter time, but never arrives.
            lost = self.loss_model.is_lost(self.rng)
        else:
            lost = self.loss_rate > 0.0 and self.rng.random() < self.loss_rate
        if lost:
            stats.random_losses += 1
            if tracer is not None:
                tracer.emit(
                    "link.drop",
                    at_s,
                    flow=packet.flow_id,
                    link=self.name,
                    node=self.node,
                    reason="wire",
                    seq=packet.seq,
                )
            return _NEVER

        deliver_at = busy + self.delay_s
        if self.noise is not None:
            deliver_at += self.noise.sample(at_s, self.rng)
        # FIFO even under noise and mid-run rate/delay changes: never
        # deliver before an earlier packet.
        if deliver_at <= self._last_delivery:
            deliver_at = self._last_delivery + 1e-9
        self._last_delivery = deliver_at
        stats.delivered += 1
        if tracer is not None:
            tracer.emit(
                "link.dequeue",
                at_s,
                flow=packet.flow_id,
                link=self.name,
                node=self.node,
                seq=packet.seq,
                depart_s=busy,
                deliver_at_s=deliver_at,
            )
        return deliver_at
