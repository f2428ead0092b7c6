"""Engine microbenchmarks: event throughput of both scheduling paths.

Run with ``pytest benchmarks/perf`` for pytest-benchmark timings, or via
``repro bench`` (which drives the same functions and emits
``BENCH_sim.json``).  Shape assertions here pin the *relationships* the
hot-path work must preserve — the allocation-free fast path must not be
slower than the cancellable Event path — while absolute rates are gated
in CI against ``baseline.json`` by ``repro bench --check-against``.
"""

from __future__ import annotations

from repro.harness.bench import engine_events_per_sec, scenario_events_per_sec

N_EVENTS = 30_000  # small enough for a smoke run, large enough to amortise


def test_fast_path_throughput(benchmark):
    rate = benchmark.pedantic(
        lambda: engine_events_per_sec(N_EVENTS, fast=True),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    assert rate > 0


def test_event_path_throughput(benchmark):
    rate = benchmark.pedantic(
        lambda: engine_events_per_sec(N_EVENTS, fast=False),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    assert rate > 0


def test_fast_path_not_slower_than_event_path():
    # Warm-up draw evens out allocator/interpreter state, then compare.
    engine_events_per_sec(5_000, fast=True)
    fast = engine_events_per_sec(N_EVENTS, fast=True)
    slow = engine_events_per_sec(N_EVENTS, fast=False)
    # 0.9 head-room: the claim is "no Event allocation costs nothing",
    # not a precise speedup factor, and CI timers are noisy.
    assert fast > 0.9 * slow, (
        f"fast path ({fast:,.0f}/s) slower than Event path ({slow:,.0f}/s)"
    )


def test_scenario_throughput(benchmark):
    rate, events, virtual, _wall = benchmark.pedantic(
        lambda: scenario_events_per_sec(duration_s=2.0),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    assert rate > 0
    assert events > 1_000  # a real scenario, not an empty run
    # Two unbounded single-hop flows on a healthy link: collapsed
    # packet legs absorb the data-delivery dispatches.
    assert virtual > 0
