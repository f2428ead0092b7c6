"""Property tests: collapsed packet legs under randomized link timelines.

The correctness argument for collapse is structural — a collapsed leg
reproduces the packet-chain arithmetic, and every hazard (a timeline
barrier, reverse-link loss or outage, the run horizon) sends the packet
down the chain — so the right test is not a handful of hand-picked
scenarios but the conservation invariants under *arbitrary* timelines.
Hypothesis drives random bandwidth steps, i.i.d. and Gilbert-Elliott
loss, and outages through a two-flow dumbbell, untraced (collapsed
where eligible) and traced (packet chain), with the runtime
:class:`InvariantChecker` armed; any conservation, clock, queue, or RTT
violation raises mid-run.
"""

from __future__ import annotations

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness import (
    EMULAB_DEFAULT,
    BandwidthStep,
    FlowSpec,
    GilbertLoss,
    LossStep,
    Outage,
    Timeline,
    run_flows,
)
from repro.obs import RingBufferTracer
from repro.sim.packet import MTU_BYTES

SPECS = [FlowSpec("cubic"), FlowSpec("proteus-s", start_time=0.5)]
DURATION_S = 4.0

# Step times land strictly inside the run so every mutation is exercised.
_times = st.floats(min_value=0.3, max_value=3.5, allow_nan=False)
# Reverse-link events are barriers for the collapsed ACK legs.
_links = st.sampled_from(("bottleneck", "reverse"))

_bandwidth_steps = st.builds(
    BandwidthStep,
    at_s=_times,
    bandwidth_mbps=st.floats(min_value=4.0, max_value=40.0, allow_nan=False),
    link=_links,
)
_loss_steps = st.builds(
    LossStep,
    at_s=_times,
    loss_rate=st.floats(min_value=0.0, max_value=0.05, allow_nan=False),
    link=_links,
)
_outages = st.builds(
    lambda start, span, link: Outage(start_s=start, end_s=start + span, link=link),
    start=_times,
    span=st.floats(min_value=0.05, max_value=0.4, allow_nan=False),
    link=_links,
)
_gilbert_steps = st.builds(
    GilbertLoss,
    at_s=_times,
    p_enter_bad=st.floats(min_value=0.001, max_value=0.05, allow_nan=False),
    p_exit_bad=st.floats(min_value=0.1, max_value=0.9, allow_nan=False),
    link=_links,
)

_timelines = st.lists(
    st.one_of(_bandwidth_steps, _loss_steps, _outages, _gilbert_steps),
    min_size=0,
    max_size=4,
).map(lambda steps: Timeline(tuple(steps), label="property"))


def _run(timeline, seed, tracer=None):
    # Arm the runtime checker regardless of the suite's environment:
    # clock monotonicity + per-sweep link conservation raise mid-run.
    old = os.environ.get("REPRO_CHECK_INVARIANTS")
    os.environ["REPRO_CHECK_INVARIANTS"] = "1"
    try:
        return run_flows(
            SPECS,
            EMULAB_DEFAULT,
            duration_s=DURATION_S,
            seed=seed,
            timeline=timeline,
            tracer=tracer,
        )
    finally:
        if old is None:
            del os.environ["REPRO_CHECK_INVARIANTS"]
        else:
            os.environ["REPRO_CHECK_INVARIANTS"] = old


def _assert_conservation(result):
    for link in (result.dumbbell.bottleneck, result.dumbbell.reverse):
        stats = link.stats
        accounted = (
            stats.delivered
            + stats.tail_drops
            + stats.random_losses
            + getattr(stats, "outage_drops", 0)
            + link.queued_packets()
        )
        assert stats.offered == accounted, (
            f"{link.name}: offered={stats.offered} accounted={accounted}"
        )
    for flow_stats in result.stats:
        assert flow_stats.delivered_bytes <= flow_stats.packets_sent * MTU_BYTES


@settings(max_examples=12, deadline=None)
@given(timeline=_timelines, seed=st.integers(min_value=0, max_value=2**16))
def test_hybrid_conserves_packets_under_random_timelines(timeline, seed):
    collapsed = _run(timeline, seed)
    _assert_conservation(collapsed)
    sim = collapsed.dumbbell.sim
    assert sim.events_virtual >= 0
    assert sim.events_fired > 0
    # The virtual ledger counts one skipped data-delivery dispatch per
    # collapsed packet, so it never exceeds the packets sent.
    total_packets = sum(s.packets_sent for s in collapsed.stats)
    assert sim.events_virtual <= total_packets


@settings(max_examples=8, deadline=None)
@given(timeline=_timelines, seed=st.integers(min_value=0, max_value=2**16))
def test_exact_mode_never_goes_virtual_under_random_timelines(timeline, seed):
    # A traced run takes the packet chain throughout.
    exact = _run(timeline, seed, tracer=RingBufferTracer(capacity=1))
    _assert_conservation(exact)
    assert exact.dumbbell.sim.events_virtual == 0


@settings(max_examples=6, deadline=None)
@given(timeline=_timelines, seed=st.integers(min_value=0, max_value=2**16))
def test_hybrid_is_deterministic_under_random_timelines(timeline, seed):
    a = _run(timeline, seed)
    b = _run(timeline, seed)
    for sa, sb in zip(a.stats, b.stats):
        assert sa.delivered_bytes == sb.delivered_bytes
        assert sa.packets_sent == sb.packets_sent
        assert list(sa.rtts) == list(sb.rtts)
        assert list(sa.loss_times) == list(sb.loss_times)


@settings(max_examples=8, deadline=None)
@given(timeline=_timelines, seed=st.integers(min_value=0, max_value=2**16))
def test_collapse_matches_chain_under_random_timelines(timeline, seed):
    from repro.devtools import stats_digest

    collapsed = _run(timeline, seed)
    chain = _run(timeline, seed, tracer=RingBufferTracer(capacity=1))
    assert stats_digest(collapsed.stats) == stats_digest(chain.stats)
    for a, b in zip(collapsed.dumbbell.iter_links(), chain.dumbbell.iter_links()):
        for slot in type(a.stats).__slots__:
            assert getattr(a.stats, slot) == getattr(b.stats, slot), (a.name, slot)
