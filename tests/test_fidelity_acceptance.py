"""Acceptance: collapsed packet legs equal the packet chain on paper scenarios.

Untraced runs collapse the packet legs of eligible flows; a traced run
takes the packet chain.  Collapse is bit-exact, so each pin here is
equality of the whole measurement record, not a tolerance:

* **Fig-6 regime (all-unbounded competition)** — collapse engages on
  every grid point: all five primaries against both scavengers on both
  paper buffers, at two seeds.  The paper's claim on that regime is
  pinned too: over three seeds, CUBIC keeps nearly all of its solo
  throughput against Proteus-S while the pair fills the link.
* **Fig-2 regime (mixed workload with bounded flows)** — one bounded
  flow vetoes collapse on its links, so nothing is virtualized.
"""

from __future__ import annotations

from repro.harness import (
    EMULAB_DEFAULT,
    EMULAB_SHALLOW,
    PRIMARY_PROTOCOLS,
    FlowSpec,
    run_pair,
)
from tests.sim.test_fidelity import assert_collapse_matches_chain

FIG6_DURATION_S = 3.0

ENSEMBLE_SEEDS = (1, 2, 3)
ENSEMBLE_DURATION_S = 10.0
MIN_PRIMARY_RATIO = 0.9
MIN_UTILIZATION = 0.95


def test_fig6_ensemble_scavenger_metrics_track_exact():
    # Every grid point, both seeds: equal, not within a tolerance.
    for seed in (1, 9973):
        for primary in PRIMARY_PROTOCOLS:
            for scavenger in ("proteus-s", "ledbat"):
                for config in (EMULAB_SHALLOW, EMULAB_DEFAULT):
                    result = assert_collapse_matches_chain(
                        [FlowSpec(primary), FlowSpec(scavenger, start_time=0.5)],
                        config,
                        duration_s=FIG6_DURATION_S,
                        seed=seed,
                    )
                    assert result.dumbbell.sim.events_virtual > 0


def test_fig6_ensemble_primary_keeps_throughput_and_link_stays_full():
    pairs = [
        run_pair(
            "cubic",
            "proteus-s",
            EMULAB_DEFAULT,
            duration_s=ENSEMBLE_DURATION_S,
            seed=seed,
        )
        for seed in ENSEMBLE_SEEDS
    ]
    n = len(pairs)
    ratio = sum(p.primary_throughput_ratio for p in pairs) / n
    utilization = sum(p.utilization for p in pairs) / n
    assert ratio > MIN_PRIMARY_RATIO, f"mean primary throughput ratio {ratio:.3f}"
    assert utilization > MIN_UTILIZATION, f"mean utilization {utilization:.3f}"


# Fig-2-style mixed workload: a long-lived probe pair plus a *bounded*
# transfer sharing the bottleneck.  The bounded flow's completion
# bookkeeping rides on per-packet delivery timing, so collapse must
# stand down for every flow on the link.
MIXED_SPECS = [
    FlowSpec("cubic"),
    FlowSpec("proteus-s", start_time=1.0),
    FlowSpec("cubic", start_time=0.5, size_bytes=200_000),
]


def test_fig2_mixed_workload_hybrid_is_bit_identical_to_exact():
    result = assert_collapse_matches_chain(
        MIXED_SPECS, EMULAB_DEFAULT, duration_s=6.0, seed=11
    )
    assert result.dumbbell.sim.events_virtual == 0


def test_fig6_solo_runs_are_bit_identical_across_modes():
    result = assert_collapse_matches_chain(
        [FlowSpec("cubic")], EMULAB_DEFAULT, duration_s=6.0, seed=5
    )
    assert result.dumbbell.sim.events_virtual > 0
