"""Tests for the deadline-driven Proteus-H threshold policy (§2.3)."""

import pytest

from repro.core import DeadlineThresholdPolicy
from repro.protocols import ProteusSender
from repro.sim import Dumbbell, Simulator, make_rng, mbps


def test_required_rate_math():
    policy = DeadlineThresholdPolicy(total_bytes=100e6, deadline_s=100.0)
    # Nothing delivered at t=0: need 8 Mbps on average.
    assert policy.required_rate_bps(0.0, 0.0) == pytest.approx(8e6)
    # Halfway through data and time: still 8 Mbps.
    assert policy.required_rate_bps(50.0, 50e6) == pytest.approx(8e6)
    # Ahead of schedule: requirement drops.
    assert policy.required_rate_bps(25.0, 75e6) < 3e6


def test_threshold_includes_safety_margin():
    policy = DeadlineThresholdPolicy(100e6, 100.0, safety=1.5)
    assert policy.threshold_bps(0.0, 0.0) == pytest.approx(1.5 * 8e6)


def test_finished_transfer_needs_nothing():
    policy = DeadlineThresholdPolicy(100e6, 100.0)
    assert policy.required_rate_bps(10.0, 100e6) == 0.0
    assert policy.threshold_bps(10.0, 100e6) == 0.0


def test_blown_deadline_goes_full_primary():
    policy = DeadlineThresholdPolicy(100e6, 100.0)
    assert policy.threshold_bps(100.0, 50e6) == float("inf")
    assert policy.threshold_bps(150.0, 50e6) == float("inf")


def test_min_threshold_floor():
    policy = DeadlineThresholdPolicy(1e6, 1000.0, min_threshold_bps=2e6)
    assert policy.threshold_bps(0.0, 0.0) == pytest.approx(2e6)


def test_validation():
    with pytest.raises(ValueError):
        DeadlineThresholdPolicy(0.0, 10.0)
    with pytest.raises(ValueError):
        DeadlineThresholdPolicy(1e6, 0.0)
    with pytest.raises(ValueError):
        DeadlineThresholdPolicy(1e6, 10.0, safety=0.5)


def test_deadline_transfer_yields_when_ahead_of_schedule():
    """End-to-end: a hybrid flow with lots of slack scavenges; the same
    transfer with a tight deadline takes a real share."""

    def run(deadline_s: float) -> float:
        sim = Simulator()
        dumbbell = Dumbbell(sim, mbps(50.0), 0.030, 375e3, rng=make_rng(3))
        primary = dumbbell.add_flow(ProteusSender("proteus-p", seed=1), flow_id=1)
        hybrid = ProteusSender("proteus-h", seed=2)
        policy = DeadlineThresholdPolicy(total_bytes=500e6, deadline_s=deadline_s)
        flow = dumbbell.add_flow(hybrid, flow_id=2, start_time=2.0)

        def update_threshold():
            hybrid.set_threshold(
                policy.threshold_bps(sim.now, flow.stats.delivered_bytes)
            )
            if sim.now < 29.0:
                sim.schedule(1.0, update_threshold)

        sim.schedule(2.0, update_threshold)
        sim.run(until=30.0)
        del primary
        return flow.stats.throughput_bps(15.0, 30.0) / 1e6

    relaxed = run(deadline_s=2000.0)  # needs only ~2 Mbps: scavenges
    urgent = run(deadline_s=25.0)  # needs ~160 Mbps: full primary
    assert urgent > relaxed + 5.0
