"""Sender framework shared by every congestion controller.

Two sender styles cover all protocols in the paper:

* :class:`WindowSender` — ACK-clocked, window-limited (CUBIC, LEDBAT).
* :class:`RateSender` — paced at an explicit sending rate with an optional
  in-flight cap (BBR, COPA, fixed-rate UDP, and the PCC family).

Both inherit :class:`SenderBase`, which owns sequence tracking, RTT
estimation, gap-based loss detection and the retransmission timeout.  The
simulator's links never reorder, so an ACK for a later-sent packet proves
every earlier unACKed packet was dropped — this gives exact per-packet
"acked or lost" accounting, which the PCC monitor-interval machinery
requires.
"""

from __future__ import annotations

from collections import deque

from ..sim.engine import Event, Simulator
from ..sim.flow import Flow
from ..sim.packet import MTU_BYTES, Packet
from ..core.rng import Rng

MIN_RTO_S = 0.25
"""Floor on the retransmission timeout."""


class AckInfo:
    """Per-ACK measurement handed to congestion-control hooks."""

    __slots__ = ("seq", "sent_time", "recv_time", "ack_time", "nbytes", "rtt")

    def __init__(
        self,
        seq: int,
        sent_time: float,
        recv_time: float,
        ack_time: float,
        nbytes: int,
    ):
        self.seq = seq
        self.sent_time = sent_time
        self.recv_time = recv_time
        self.ack_time = ack_time
        self.nbytes = nbytes
        self.rtt = ack_time - sent_time

    @property
    def one_way_delay(self) -> float:
        """Sender-to-receiver delay (exact: simulated clocks are synced)."""
        return self.recv_time - self.sent_time


class SenderBase:
    """Common sender machinery; subclasses implement the control law.

    Subclass hooks (all optional):
        ``on_start()`` — flow begins.
        ``on_ack(info)`` — a new packet was cumulatively acknowledged.
        ``on_loss(seq, sent_time)`` — a packet was declared lost.
        ``on_timeout()`` — the RTO fired with data outstanding.
    """

    mss = MTU_BYTES

    def __init__(self, name: str = "sender"):
        self.name = name
        self.sim: Simulator | None = None
        self.flow: Flow | None = None
        self.tracer = None
        self.started = False
        self.stopped = False
        self.paused = False
        # (seq, sent_time, size) of in-flight packets, oldest first.
        self._unacked: deque[tuple[int, float, int]] = deque()
        # Most senders leave on_sent as the base no-op; skipping the
        # call entirely saves one dispatch per packet on the hot path.
        self._notify_sent = type(self).on_sent is not SenderBase.on_sent
        self.inflight_bytes = 0
        self.srtt: float | None = None
        self.rttvar: float = 0.0
        self.min_rtt: float | None = None
        self._last_progress = 0.0
        self._rto_event: Event | None = None

    # ------------------------------------------------------------------
    # Lifecycle (called by Flow)
    # ------------------------------------------------------------------
    def bind(self, sim: Simulator, flow: Flow) -> None:
        self.sim = sim
        self.flow = flow
        self.tracer = sim.tracer
        # Per-sender jitter stream (deterministic from flow identity); used
        # to break pathological phase-locking between paced senders.
        self._jitter_rng = Rng(f"sender:{flow.flow_id}:{self.name}")

    def trace(self, kind: str, **fields) -> None:
        """Emit a trace event attributed to this sender's flow.

        Call sites on hot paths should guard with ``if self.tracer is not
        None`` themselves to skip the call entirely; this helper re-checks
        so cold paths can call it unconditionally.
        """
        if self.tracer is not None:
            self.tracer.emit(kind, self.sim.now, flow=self.flow.flow_id, **fields)

    def start(self) -> None:
        if self.sim is None:
            raise RuntimeError("sender must be bound to a flow before start")
        self.started = True
        self._last_progress = self.sim.now
        self.on_start()

    def stop(self) -> None:
        self.stopped = True
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None

    def pause(self) -> None:
        """Application-level pause (e.g. full playback buffer)."""
        self.paused = True

    def resume(self) -> None:
        self.paused = False
        if self.started and not self.stopped:
            self.on_data_available()

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def inflight_packets(self) -> int:
        return len(self._unacked)

    def _transmit_one(self) -> bool:
        """Send one MSS (or the final short packet). False if no data."""
        flow = self.flow
        # Inlined flow.has_data() — this is the per-packet hot path.
        if flow is None or flow.completed or flow.bytes_unsent <= 0:
            return False
        size = self.mss
        if flow.bytes_unsent < size:
            size = max(1, int(flow.bytes_unsent))
        now = self.sim.now
        seq, _accepted = flow.transmit(size)
        self._unacked.append((seq, now, size))
        self.inflight_bytes += size
        if self._rto_event is None:
            self._arm_rto()
        if self._notify_sent:
            self.on_sent(seq, size)
        return True

    # ------------------------------------------------------------------
    # ACK / loss processing
    # ------------------------------------------------------------------
    def handle_ack_packet(self, ack: Packet) -> None:
        if self.stopped:
            return
        now = self.sim.now
        unacked = self._unacked
        # Gap detection: FIFO links mean earlier unACKed packets are lost.
        while unacked and unacked[0][0] < ack.data_seq:
            seq, sent_time, size = unacked.popleft()
            self._register_loss(now, seq, sent_time, size)
        if unacked and unacked[0][0] == ack.data_seq:
            seq, sent_time, size = unacked.popleft()
            self.inflight_bytes -= size
            self._last_progress = now
            info = AckInfo(seq, ack.data_sent_time, ack.data_recv_time, now, size)
            rtt = info.rtt
            # _update_rtt and FlowStats.record_ack, inlined: one ACK per
            # delivered packet makes this the hottest control-path code.
            min_rtt = self.min_rtt
            if min_rtt is None or rtt < min_rtt:
                self.min_rtt = rtt
            srtt = self.srtt
            if srtt is None:
                self.srtt = rtt
                self.rttvar = rtt / 2.0
            else:
                self.rttvar = 0.75 * self.rttvar + 0.25 * abs(srtt - rtt)
                self.srtt = 0.875 * srtt + 0.125 * rtt
            stats = self.flow.stats
            stats.ack_times.append(now)
            stats.acked_bytes.append(size)
            stats.rtts.append(rtt)
            stats.total_acked_bytes += size
            self.on_ack(info)
        # else: stale ACK for a packet already declared lost — ignored.
        self._after_event()

    def _register_loss(self, now: float, seq: int, sent_time: float, size: int) -> None:
        self.inflight_bytes -= size
        self.flow.stats.record_loss(now)
        self.flow.requeue_bytes(size)
        self.on_loss(seq, sent_time)

    def _update_rtt(self, rtt: float) -> None:
        if self.min_rtt is None or rtt < self.min_rtt:
            self.min_rtt = rtt
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - rtt)
            self.srtt = 0.875 * self.srtt + 0.125 * rtt

    # ------------------------------------------------------------------
    # Retransmission timeout
    # ------------------------------------------------------------------
    def _rto_interval(self) -> float:
        if self.srtt is None:
            return 1.0
        return max(MIN_RTO_S, 2.0 * self.srtt + 4.0 * self.rttvar)

    def _arm_rto(self) -> None:
        if self._rto_event is None and not self.stopped:
            self._rto_event = self.sim.schedule(self._rto_interval(), self._rto_fire)

    def _rto_fire(self) -> None:
        self._rto_event = None
        if self.stopped or not self._unacked:
            return
        now = self.sim.now
        deadline = self._last_progress + self._rto_interval()
        if now + 1e-12 < deadline:
            self._rto_event = self.sim.schedule_at(deadline, self._rto_fire)
            return
        while self._unacked:
            seq, sent_time, size = self._unacked.popleft()
            self._register_loss(now, seq, sent_time, size)
        self._last_progress = now
        self.on_timeout()
        self._after_event()

    # ------------------------------------------------------------------
    # Subclass interface
    # ------------------------------------------------------------------
    def on_start(self) -> None:  # pragma: no cover - overridden
        pass

    def on_sent(self, seq: int, size: int) -> None:
        pass

    def on_ack(self, info: AckInfo) -> None:
        pass

    def on_loss(self, seq: int, sent_time: float) -> None:
        pass

    def on_timeout(self) -> None:
        pass

    def on_data_available(self) -> None:
        pass

    def _after_event(self) -> None:
        """Called after each ACK batch / timeout; senders may transmit."""


class WindowSender(SenderBase):
    """ACK-clocked sender limited by a congestion window (in packets)."""

    initial_cwnd = 10.0

    def __init__(self, name: str = "window"):
        super().__init__(name)
        self.cwnd = self.initial_cwnd

    def on_start(self) -> None:
        self._fill_window()

    def on_data_available(self) -> None:
        self._fill_window()

    def _after_event(self) -> None:
        self._fill_window()

    def _fill_window(self) -> None:
        if not self.started or self.stopped or self.paused:
            return
        while len(self._unacked) < self.cwnd:
            if not self._transmit_one():
                break


class RateSender(SenderBase):
    """Paced sender transmitting at ``rate_bps`` (optional in-flight cap).

    The pacing interval is re-evaluated at every tick, so rate changes take
    effect for the next packet.  When the application has no data (or the
    sender is paused) the pacing loop parks and is restarted by
    ``on_data_available`` / ``resume``.
    """

    min_rate_bps = 64_000.0

    def __init__(self, name: str = "rate", initial_rate_bps: float = 1e6):
        super().__init__(name)
        self.rate_bps = initial_rate_bps
        self.inflight_cap: float | None = None  # packets; None = uncapped
        self._tick_event: Event | None = None

    def set_rate(self, rate_bps: float, reason: str | None = None) -> None:
        """Change the pacing rate; ``reason`` tags the trace event.

        ``reason`` is observability-only (e.g. ``"probe:0:1:hi"``,
        ``"timeout:halve"``) — control-law behaviour never depends on it.
        """
        self.rate_bps = max(self.min_rate_bps, rate_bps)
        if self.tracer is not None:
            self.tracer.emit(
                "rate.change",
                self.sim.now,
                flow=self.flow.flow_id,
                rate_bps=self.rate_bps,
                reason=reason,
            )

    def repace(self) -> None:
        """Apply the current rate to the pacing loop *immediately*.

        The default pacing loop recomputes its interval only after each
        tick, so a ``set_rate`` call mid-interval lets at most one
        already-scheduled (stale) interval elapse before the new rate
        takes effect — harmless for MI-boundary controllers (the PCC
        family changes rate exactly when a tick-aligned monitor interval
        closes), and pinned by regression tests.  Senders that make
        *abrupt* rate steps on their own schedule (e.g. hostile on/off
        cross traffic) call this after ``set_rate`` to cancel the stale
        tick and restart pacing under the new rate now.
        """
        if self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None
        if self.started and not self.stopped and not self.paused:
            self._schedule_tick(0.0)

    def on_start(self) -> None:
        self._schedule_tick(0.0)

    def on_data_available(self) -> None:
        if self._tick_event is None:
            self._schedule_tick(0.0)

    def resume(self) -> None:
        super().resume()
        if self.started and not self.stopped and self._tick_event is None:
            self._schedule_tick(0.0)

    def stop(self) -> None:
        super().stop()
        if self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None

    def _after_event(self) -> None:
        # An ACK may have freed in-flight budget while the loop is parked.
        if (
            self._tick_event is None
            and self.started
            and not self.stopped
            and not self.paused
            and self.flow.has_data()
        ):
            self._schedule_tick(0.0)

    def _schedule_tick(self, delay: float) -> None:
        self._tick_event = self.sim.schedule(delay, self._tick)

    def _tick(self) -> None:
        self._tick_event = None
        if self.stopped or self.paused:
            return
        if not self.flow.has_data():
            return  # parked; on_data_available restarts the loop
        capped = (
            self.inflight_cap is not None
            and len(self._unacked) >= self.inflight_cap
        )
        if not capped:
            self._transmit_one()
        interval = self.mss * 8.0 / max(self.min_rate_bps, self.rate_bps)
        # +/-2% pacing jitter: real senders are never perfectly periodic,
        # and exact periodicity phase-locks competing flows in a
        # deterministic simulator (one flow permanently wins every
        # buffer-full race).
        interval *= 0.98 + 0.04 * self._jitter_rng.random()
        self._schedule_tick(interval)
