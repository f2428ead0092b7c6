#!/usr/bin/env python
"""Scenario: a software update with a completion deadline (§2.3).

The paper motivates dynamic priority with exactly this case: "when a
software update has a deadline requirement, it may want to yield
dynamically, only after reaching a certain throughput."  Here a 500 MB
update shares a 50 Mbps link with a primary Proteus-P flow.  With a
relaxed deadline the update scavenges the whole way; with a tight one,
the deadline-driven Proteus-H threshold rises as slack shrinks and the
update defends exactly the share it needs — no more.

Run:  python examples/deadline_update.py
"""

from repro.core import DeadlineThresholdPolicy
from repro.harness import print_table
from repro.protocols import ProteusSender
from repro.sim import Dumbbell, Simulator, make_rng, mbps

LINK_MBPS = 50.0
UPDATE_BYTES = 500e6
DURATION_S = 120.0


def run_update(deadline_s: float):
    sim = Simulator()
    dumbbell = Dumbbell(sim, mbps(LINK_MBPS), 0.030, 375e3, rng=make_rng(9))
    primary = dumbbell.add_flow(ProteusSender("proteus-p", seed=1), flow_id=1)
    update = ProteusSender("proteus-h", seed=2)
    policy = DeadlineThresholdPolicy(UPDATE_BYTES, deadline_s)
    update_flow = dumbbell.add_flow(update, flow_id=2, start_time=3.0)

    def refresh_threshold():
        update.set_threshold(
            policy.threshold_bps(sim.now, update_flow.stats.delivered_bytes)
        )
        if sim.now < DURATION_S - 1.0:
            sim.schedule(1.0, refresh_threshold)

    sim.schedule(3.0, refresh_threshold)
    sim.run(until=DURATION_S)
    window = (DURATION_S / 2, DURATION_S)
    return (
        update_flow.stats.delivered_bytes / 1e6,
        update_flow.stats.throughput_bps(*window) / 1e6,
        primary.stats.throughput_bps(*window) / 1e6,
    )


def main() -> None:
    rows = []
    for deadline in (3600.0, 240.0, 100.0):
        delivered_mb, update_mbps, primary_mbps = run_update(deadline)
        rows.append(
            (
                f"{deadline:.0f} s",
                f"{delivered_mb:.0f}",
                f"{update_mbps:.1f}",
                f"{primary_mbps:.1f}",
            )
        )
    print_table(
        ["deadline", "update MB done", "update Mbps", "primary Mbps"],
        rows,
        title=f"500 MB update next to a primary flow on {LINK_MBPS:.0f} Mbps "
        f"({DURATION_S:.0f} s observed)",
    )
    print(
        "\nWith hours of slack the update is a pure scavenger; as the\n"
        "deadline tightens, the Proteus-H threshold rises to the required\n"
        "rate and the update claims just enough bandwidth to make it."
    )


if __name__ == "__main__":
    main()
