"""Collapsed packet legs: eligibility, accounting and the differential gate.

The simulator has one execution path.  Untraced runs collapse the packet
legs of eligible flows (``repro.sim.activate_fastforward``); a traced
run takes the packet chain.  Collapse is bit-exact, so the gate here is
equality, not a tolerance: an untraced and a traced run of the same
scenario must agree on the stats digest, every link's counters and the
metrics snapshot.  ``resolve_fidelity`` survives only as the constant
"exact" mode name.
"""

from __future__ import annotations

import pytest

from repro.devtools import stats_digest
from repro.harness import EMULAB_DEFAULT, TOPOLOGIES, FlowSpec, run_flows
from repro.obs import CollectingTracer, RingBufferTracer
from repro.sim import activate_fastforward, resolve_fidelity
from repro.sim.engine import Simulator
from repro.sim.flow import Flow, Path
from repro.sim.link import Link, LinkStats


def link_counters(result) -> dict:
    return {
        link.name: {slot: getattr(link.stats, slot) for slot in LinkStats.__slots__}
        for link in result.dumbbell.iter_links()
    }


def assert_collapse_matches_chain(specs, config, **kwargs):
    """Run ``specs`` untraced and traced; require byte-identical outcomes.

    Returns the untraced (collapsed where eligible) result.  The traced
    run takes the packet chain, so its fired events must equal the
    untraced run's fired plus virtual events.
    """
    collapsed = run_flows(specs, config, **kwargs)
    chain = run_flows(specs, config, tracer=RingBufferTracer(capacity=1), **kwargs)
    assert stats_digest(collapsed.stats) == stats_digest(chain.stats)
    assert link_counters(collapsed) == link_counters(chain)
    assert collapsed.metrics == chain.metrics
    assert chain.dumbbell.sim.events_virtual == 0
    sim = collapsed.dumbbell.sim
    assert sim.events_fired + sim.events_virtual == chain.dumbbell.sim.events_fired
    return collapsed


# ----------------------------------------------------------------------
# The one remaining mode name
# ----------------------------------------------------------------------
def test_fidelity_mode_validation():
    for mode in ("hybrid", "fluid", ""):
        with pytest.raises(ValueError):
            resolve_fidelity(mode)


def test_resolve_fidelity_passthrough_and_strings():
    assert resolve_fidelity().mode == "exact"
    assert resolve_fidelity("exact") is resolve_fidelity(None)


def test_resolve_fidelity_env(monkeypatch):
    # The mode is not configurable: no environment variable selects it.
    monkeypatch.setenv("REPRO_FIDELITY", "hybrid")
    assert resolve_fidelity(None).mode == "exact"


# ----------------------------------------------------------------------
# Eligibility
# ----------------------------------------------------------------------
class _NullSender:
    """Minimal SenderProtocol stand-in for wiring tests."""

    def bind(self, sim, flow):
        self.flow = flow

    def start(self):
        pass

    def handle_ack_packet(self, ack):
        pass

    def on_data_available(self):
        pass

    def stop(self):
        pass


def _link(sim):
    return Link(sim, bandwidth_bps=10e6, delay_s=0.01, buffer_bytes=50_000)


def _wire(sim, n_flows: int, sizes=None):
    fwd, rev = _link(sim), _link(sim)
    return [
        Flow(
            sim,
            _NullSender(),
            Path([fwd]),
            Path([rev]),
            flow_id=i + 1,
            size_bytes=sizes[i] if sizes else None,
        )
        for i in range(n_flows)
    ]


def test_activate_noop_in_exact_mode():
    # A traced run takes the packet chain: no flow collapses.
    sim = Simulator(check_invariants=False, tracer=CollectingTracer())
    flows = _wire(sim, 2)
    assert activate_fastforward(sim, flows) == 0
    assert not any(f.ff_collapse for f in flows)


def test_activate_enables_all_unbounded_flows():
    sim = Simulator(check_invariants=False)
    flows = _wire(sim, 3)
    assert activate_fastforward(sim, flows) == 3
    assert all(f.ff_collapse for f in flows)


def test_one_bounded_flow_disables_the_whole_shared_link():
    # A packet-chain flow sharing a link with collapsed traffic would
    # see the transmitter claimed ahead of the clock, so one ineligible
    # flow must veto every flow on its links.
    sim = Simulator(check_invariants=False)
    flows = _wire(sim, 3, sizes=[None, 100_000, None])
    assert activate_fastforward(sim, flows) == 0
    assert not any(f.ff_collapse for f in flows)


def test_delivery_callback_disqualifies():
    sim = Simulator(check_invariants=False)
    flow = Flow(
        sim,
        _NullSender(),
        Path([_link(sim)]),
        Path([_link(sim)]),
        on_delivery=lambda now, n: None,
    )
    assert activate_fastforward(sim, [flow]) == 0
    assert not flow.ff_collapse


def test_multihop_path_disqualifies():
    sim = Simulator(check_invariants=False)
    flow = Flow(sim, _NullSender(), Path([_link(sim), _link(sim)]), Path([_link(sim)]))
    assert activate_fastforward(sim, [flow]) == 0


def test_dynamic_link_disqualifies():
    # A DynamicLink's explicit per-packet queue cannot be advanced in
    # closed form: can_fastforward is False and the flow stays exact.
    from repro.sim import DynamicLink, TailDropDiscipline

    sim = Simulator(check_invariants=False)
    fwd = DynamicLink(
        sim, rate_bps=10e6, delay_s=0.01, discipline=TailDropDiscipline(50_000)
    )
    flow = Flow(sim, _NullSender(), Path([fwd]), Path([_link(sim)]))
    assert activate_fastforward(sim, [flow]) == 0
    assert not flow.ff_collapse


def test_shared_reverse_link_needs_one_forward_link():
    # ACKs of two forward links would enter a shared reverse link in
    # send order, not in delivery order: neither flow collapses.
    sim = Simulator(check_invariants=False)
    rev = _link(sim)
    flows = [
        Flow(sim, _NullSender(), Path([_link(sim)]), Path([rev]), flow_id=i)
        for i in (1, 2)
    ]
    assert activate_fastforward(sim, flows) == 0


# ----------------------------------------------------------------------
# End-to-end behaviour
# ----------------------------------------------------------------------
SPECS = [FlowSpec("cubic"), FlowSpec("proteus-s", start_time=1.0)]


def _run(tracer=None, duration_s=4.0):
    return run_flows(
        SPECS, EMULAB_DEFAULT, duration_s=duration_s, seed=7, tracer=tracer
    )


def test_hybrid_absorbs_events_virtually():
    collapsed = _run()
    chain = _run(tracer=RingBufferTracer(capacity=1))
    sim = collapsed.dumbbell.sim
    assert chain.dumbbell.sim.events_virtual == 0
    assert sim.events_virtual > 0
    # One skipped data-delivery dispatch per collapsed packet: the
    # effective count is exactly the packet chain's.
    assert sim.events_fired < chain.dumbbell.sim.events_fired
    assert sim.events_fired + sim.events_virtual == chain.dumbbell.sim.events_fired


def test_hybrid_throughput_close_to_exact():
    # Not close: identical, flow by flow.
    collapsed = assert_collapse_matches_chain(
        SPECS, EMULAB_DEFAULT, duration_s=8.0, seed=7
    )
    assert collapsed.throughput_mbps(0) > collapsed.throughput_mbps(1)


def test_exact_mode_emits_no_fastforward_tracepoints():
    # A traced run keeps a link.enqueue for every data packet and ACK.
    tracer = CollectingTracer()
    result = _run(tracer=tracer, duration_s=2.0)
    kinds = {ev.kind for ev in tracer.events}
    assert "sim.fastforward" not in kinds
    enqueues = sum(1 for ev in tracer.events if ev.kind == "link.enqueue")
    offered = sum(link.stats.offered for link in result.dumbbell.iter_links())
    assert enqueues == offered - sum(
        link.stats.tail_drops + link.stats.outage_drops
        for link in result.dumbbell.iter_links()
    )


def test_hybrid_deterministic_per_fidelity():
    a = _run()
    b = _run()
    assert stats_digest(a.stats) == stats_digest(b.stats)
    assert a.dumbbell.sim.events_virtual == b.dumbbell.sim.events_virtual


# ----------------------------------------------------------------------
# Differential gate: collapsed == packet chain, byte for byte
# ----------------------------------------------------------------------
def test_hybrid_is_byte_identical_when_topology_vetoes():
    """Every topology preset: multi-hop and DynamicLink paths veto
    collapse (zero virtual events); a plain dumbbell collapses."""
    for name, preset in sorted(TOPOLOGIES.items()):
        result = assert_collapse_matches_chain(
            SPECS, EMULAB_DEFAULT, duration_s=3.0, seed=5, topology=preset()
        )
        assert result.dumbbell.sim.events_virtual == 0, name
    dumbbell = assert_collapse_matches_chain(
        SPECS, EMULAB_DEFAULT, duration_s=3.0, seed=5
    )
    assert dumbbell.dumbbell.sim.events_virtual > 0


@pytest.mark.parametrize(
    "timeline_steps",
    [
        # A bandwidth step on the bottleneck and one on the reverse link
        # (a fast-forward barrier for the ACK legs).
        "bandwidth",
        # An outage and a loss window on the reverse link: collapsed ACK
        # legs must stand down while the link drops or draws randomness.
        "reverse-impairments",
    ],
)
def test_collapse_is_byte_identical_across_barriers(timeline_steps):
    from repro.harness import BandwidthStep, LossStep, Outage, Timeline

    steps = {
        "bandwidth": (
            BandwidthStep(at_s=1.5, bandwidth_mbps=20.0),
            BandwidthStep(at_s=2.2, bandwidth_mbps=5.0, link="reverse"),
        ),
        "reverse-impairments": (
            Outage(start_s=1.2, end_s=1.4, link="reverse"),
            LossStep(at_s=2.0, loss_rate=0.02, link="reverse"),
            LossStep(at_s=2.5, loss_rate=0.0, link="reverse"),
        ),
    }[timeline_steps]
    result = assert_collapse_matches_chain(
        SPECS, EMULAB_DEFAULT, duration_s=3.5, seed=9, timeline=Timeline(steps)
    )
    assert result.dumbbell.sim.events_virtual > 0


def test_hybrid_is_byte_identical_under_dynamic_link_timeline():
    """A timeline-scripted run over a DynamicLink bottleneck (dumbbell
    with an AQM) exercises the other veto axis: link dynamics."""
    from repro.harness import BandwidthStep, Timeline

    timeline = Timeline((BandwidthStep(at_s=1.5, bandwidth_mbps=20.0),))
    result = assert_collapse_matches_chain(
        SPECS, EMULAB_DEFAULT, duration_s=3.0, seed=9,
        topology=TOPOLOGIES["dumbbell-codel"](), timeline=timeline,
    )
    assert result.dumbbell.sim.events_virtual == 0
