"""One-file smoke test of the paper's three goals (§1).

Fast, end-to-end checks of the headline behaviours — the detailed
figure-level validation lives in benchmarks/.
"""

from repro.harness import EMULAB_DEFAULT, FlowSpec, run_flows, run_single


def test_goal_1_yielding():
    """A Proteus-S flow minimally impacts a CUBIC primary."""
    paired = run_flows(
        [FlowSpec("cubic"), FlowSpec("proteus-s", start_time=4.0)],
        EMULAB_DEFAULT,
        duration_s=20.0,
    )
    solo = run_single("cubic", EMULAB_DEFAULT, duration_s=20.0)
    window = paired.measurement_window()
    ratio = paired.throughput_mbps(0, window) / solo.throughput_mbps(0, window)
    assert ratio > 0.9


def test_goal_2_performance():
    """Alone, the scavenger acts like a normal high-performance CC."""
    result = run_single("proteus-s", EMULAB_DEFAULT, duration_s=15.0)
    window = result.measurement_window()
    assert result.throughput_mbps(0, window) > 0.85 * EMULAB_DEFAULT.bandwidth_mbps
    p95 = result.stats[0].rtt_percentile(95, *window)
    assert p95 < 2.0 * EMULAB_DEFAULT.rtt_s  # no bufferbloat


def test_goal_3_flexibility():
    """One codebase: the same sender class runs all three modes."""
    from repro.protocols import ProteusSender

    sender = ProteusSender("proteus-s")
    sender.set_utility("proteus-p")
    sender.set_utility("proteus-h")
    sender.set_threshold(10e6)
    sender.set_utility("proteus-s")  # and back, all on one instance
    assert sender.utility.name == "proteus-s"
