"""One phase of one benchmark workload, in a fresh interpreter.

``run.py`` spawns this script once per set-up sample and once per timed
run, so no timed run inherits the heap of an earlier one (every Fig-6
point forks its worker pool from this process, and a heap grown by an
earlier sweep makes each fork slower).

    python3 perfbench/workload.py --workload fig6-cold --phase measure \
        --seed 1 --seconds 10 --trace 0 --jobs 2 --work .perfbench-work/w

Phases:

* ``setup`` does what the workload needs before its first timed op —
  imports, the source digest and, for ``fig6-warm``, one cold grid pass
  that fills the result cache — then exits.
* ``measure`` does the same set-up (``fig6-warm`` reuses the cache the
  set-up before it filled) and then runs the timed closed loop for about
  ``--seconds``: it stops at the pass (Fig-6) or op (many-flows) boundary
  nearest to that budget, after at least one.

The last line of stdout is one JSON object for ``run.py``; progress
and failures go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("fig6-cold", "fig6-warm", "many-flows")

# Fig-6 grid: every primary against each scavenger on both paper buffers.
# 8 s, not shorter: at 4 s the post-warm-up window is 2.2 s, Proteus-S is
# still converging, and the yield check below failed on 3 of 180
# (seed, point) pairs (seeds 1-30); at 8 s it held on all of them.
FIG6_DURATION_S = 8.0
FIG6_BUFFERS = (("75KB", "EMULAB_SHALLOW"), ("375KB", "EMULAB_DEFAULT"))
FIG6_SCAVENGERS = ("proteus-s", "ledbat")
# Primaries for which Proteus-S must leave a higher throughput ratio than
# LEDBAT does (the paper's Fig-6 claim, checked on every pass).
YIELD_CHECKED = ("copa", "proteus-p", "vivace")

# many-flows: 1000 short CUBIC flows against 4 Proteus-S scavengers over
# four access links into a CoDel core.
MANY_PRIMARY = "cubic"
MANY_SCAVENGER = "proteus-s"
MANY_N_FLOWS = 1000
MANY_N_SCAVENGERS = 4
MANY_DURATION_S = 10.0
MANY_WATCHDOG_S = 60.0

# A timed loop never runs past this, whatever --seconds says, so a run
# stays inside run.py's deadline.
LOOP_CAP_S = 100.0


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def record_of(result) -> dict:
    """A PairResult as exact hex strings, for field-by-field equality."""
    return {name: float(value).hex() for name, value in asdict(result).items()}


def records_digest(records: dict) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def budget_spent(start: float, rounds: int, budget_s: float) -> bool:
    """True once stopping now is nearer the budget than one more round."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / rounds / 2.0 >= min(budget_s, LOOP_CAP_S)


def dir_usage(root: Path) -> tuple[int, int]:
    """(entries, bytes) of the cache files under ``root``."""
    if not root.exists():
        return 0, 0
    sizes = [path.stat().st_size for path in root.rglob("*.json")]
    return len(sizes), sum(sizes)


class Loop:
    """Closed-loop op runner: times each op and records failures."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.failures: list[str] = []
        self.failed_ops = 0

    def op(self, label: str, fn, check):
        """Run ``fn()`` timed; ``check(value)`` returns a problem or None.

        The timed region ends with a full garbage collection: simulations
        leave reference cycles, and collecting them inside each op keeps
        peak memory from growing with the number of ops run and charges
        the collection to the op that made the garbage.
        """
        t0 = time.perf_counter()
        try:
            value = fn()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            gc.collect()
            self.walls.append(time.perf_counter() - t0)
            self.fail(f"{label}: {type(exc).__name__}: {exc}")
            return None
        gc.collect()
        self.walls.append(time.perf_counter() - t0)
        try:
            problem = check(value)
        except Exception as exc:  # e.g. a TopologyError from a conservation audit
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            self.fail(f"{label}: {problem}")
        return value

    def fail(self, message: str) -> None:
        self.failed_ops += 1
        if len(self.failures) < 20:
            self.failures.append(message)
        log(f"FAILED {message}")


# ----------------------------------------------------------------------
# Fig-6 grid
# ----------------------------------------------------------------------
def fig6_grid():
    """(label, primary, buffer, LinkConfig, scavenger) in pass order.

    Both scavengers of one (primary, buffer) are adjacent, so the second
    finds the solo baseline the first stored: 10 of 40 lookups hit.
    """
    from repro.harness import scenarios

    return [
        (f"{primary}/{buffer}/{scavenger}", primary, buffer,
         getattr(scenarios, config_name), scavenger)
        for primary in scenarios.PRIMARY_PROTOCOLS
        for buffer, config_name in FIG6_BUFFERS
        for scavenger in FIG6_SCAVENGERS
    ]


def yield_problem(records: dict, primary: str, buffer: str) -> str | None:
    """Proteus-S must leave ``primary`` more throughput than LEDBAT does."""
    if primary not in YIELD_CHECKED:
        return None
    proteus = records.get(f"{primary}/{buffer}/proteus-s")
    ledbat = records.get(f"{primary}/{buffer}/ledbat")
    if proteus is None or ledbat is None:
        return None  # the other half failed and was already counted
    ratio_s = float.fromhex(proteus["primary_throughput_ratio"])
    ratio_l = float.fromhex(ledbat["primary_throughput_ratio"])
    if ratio_s > ratio_l:
        return None
    return (
        f"Proteus-S ratio {ratio_s:.4f} does not exceed LEDBAT ratio "
        f"{ratio_l:.4f}"
    )


def run_fig6_pass(loop: Loop, runner, seed: int, jobs: int, reference: dict | None,
                  what: str) -> dict:
    """One pass over the grid against the active cache; returns records.

    Each point's record must equal ``reference`` (the first pass, or the
    cold pass for ``fig6-warm``) field for field.
    """
    records: dict = {}
    for label, primary, buffer, config, scavenger in fig6_grid():

        def check(result, label=label, primary=primary, buffer=buffer,
                  scavenger=scavenger):
            record = record_of(result)
            records[label] = record
            if reference is not None and record != reference.get(label):
                return f"differs from the {what}: {record} != {reference.get(label)}"
            if scavenger == FIG6_SCAVENGERS[-1]:
                return yield_problem(records, primary, buffer)
            return None

        loop.op(
            label,
            lambda p=primary, s=scavenger, c=config: runner.run_pair(
                p, s, c, duration_s=FIG6_DURATION_S, seed=seed, jobs=jobs
            ),
            check,
        )
    return records


def cache_digest(root: Path) -> str:
    """Order-free digest of every run stored under a cache directory.

    Keys embed the source digest, so entries are identified by their
    content: each entry's ``stats_digest``, sorted, hashed together.
    """
    from repro.devtools.determinism import stats_digest
    from repro.harness.cache import stats_from_record

    digests = sorted(
        stats_digest(
            stats_from_record(entry)
            for entry in json.loads(path.read_text())["stats"]
        )
        for path in root.rglob("*.json")
    )
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def fig6_sim_metrics(records: dict) -> dict:
    """Median primary throughput ratio against Proteus-S, and per point."""
    ratios = {
        label: float.fromhex(record["primary_throughput_ratio"])
        for label, record in sorted(records.items())
        if label.endswith("/proteus-s")
    }
    return {
        "yield_ratio.p50": statistics.median(ratios.values()) if ratios else None,
        "yield_ratio.by_point": ratios,
    }


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
def setup(args):
    """Imports, source digest, and the warm cache fill; returns state."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.harness import cache, runner
    from repro.sim import resolve_fidelity

    cache.source_digest()
    state = {"runner": runner, "cache": cache, "fidelity": resolve_fidelity(None).mode}
    work = Path(args.work)
    if args.workload == "fig6-warm" and args.phase == "setup":
        root = work / "cache"
        shutil.rmtree(root, ignore_errors=True)
        cache.enable_cache(root)
        fill = Loop()
        records = run_fig6_pass(fill, runner, args.seed, args.jobs, None, "cold pass")
        (work / "cold.json").write_text(json.dumps(records, sort_keys=True))
        state["fill"] = {
            "outputs": records_digest(records),
            "attempted": len(fill.walls),
            "failed": fill.failed_ops,
            "failures": fill.failures,
        }
    return state


def measure_fig6(args, state, loop: Loop, trace) -> dict:
    runner, cache = state["runner"], state["cache"]
    work = Path(args.work)
    warm = args.workload == "fig6-warm"
    reference = json.loads((work / "cold.json").read_text()) if warm else None
    stores = bytes_written = passes = 0
    start = time.perf_counter()
    while True:
        root = work / "cache" if warm else work / f"pass-{passes}"
        if not warm:
            shutil.rmtree(root, ignore_errors=True)
        entries_before, bytes_before = dir_usage(root)
        active = cache.enable_cache(root)
        records = run_fig6_pass(
            loop, runner, args.seed, args.jobs, reference,
            "cold pass" if warm else "first pass",
        )
        entries_after, bytes_after = dir_usage(root)
        stores += entries_after - entries_before
        bytes_written += max(0, bytes_after - bytes_before)
        if reference is None:
            reference = records
        passes += 1
        if budget_spent(start, passes, args.seconds):
            break
        if not warm:
            shutil.rmtree(root)
    layers = trace.totals() if trace is not None else None
    out = {
        "passes": passes,
        "digest": cache_digest(root) if args.digest else None,
        "outputs": records_digest(reference),
        "sim": fig6_sim_metrics(reference),
        # ResultCache counters of this (driver) process: the pool workers
        # do every load and store, so these stay at zero under jobs > 1.
        "driver_cache_stats": active.stats(),
        "cache_dir": {"stores": stores, "bytes_written": bytes_written},
    }
    if not warm:
        shutil.rmtree(root)
    if layers is not None:
        out["layers"] = layers
    return out


def measure_many_flows(args, state, loop: Loop, trace) -> dict:
    runner, cache = state["runner"], state["cache"]
    from repro.devtools.determinism import stats_digest
    from repro.harness.scenarios import EMULAB_DEFAULT, TopologySpec

    cache.disable_cache()
    topology = TopologySpec(preset="multi-dumbbell", n_hops=4, aqm="codel")
    first: dict = {}

    def check(result):
        result.dumbbell.assert_conservation()
        digest = stats_digest(result.stats)
        if not first:
            fcts = [
                stats.end_time - stats.start_time if stats.end_time is not None
                else float("inf")
                for stats in result.stats[MANY_N_SCAVENGERS:]
            ]
            first.update(digest=digest, fcts=fcts)
            return None
        if digest != first["digest"]:
            return f"digest {digest} differs from the first op's {first['digest']}"
        return None

    start = time.perf_counter()
    while True:
        loop.op(
            f"many-flows#{len(loop.walls)}",
            lambda: runner.run_many(
                MANY_PRIMARY, MANY_SCAVENGER, EMULAB_DEFAULT,
                n_flows=MANY_N_FLOWS, n_scavengers=MANY_N_SCAVENGERS,
                duration_s=MANY_DURATION_S, seed=args.seed, topology=topology,
                max_wall_s=MANY_WATCHDOG_S,
            ),
            check,
        )
        if budget_spent(start, len(loop.walls), args.seconds):
            break
    out: dict = {"digest": first.get("digest"), "outputs": first.get("digest"), "sim": {}}
    if trace is not None:
        out["layers"] = trace.totals()
    if first:
        fcts = sorted(first["fcts"])
        finished = sum(1 for fct in fcts if fct != float("inf"))
        out["sim"] = {
            "fct_s.p50": fcts[len(fcts) // 2],
            "fct_s.p90": fcts[(len(fcts) * 9) // 10],
            "flows_finished": finished,
            "flows": len(fcts),
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--phase", choices=("setup", "measure"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--digest", type=int, choices=(0, 1), default=1,
                        help="digest the stored Fig-6 runs (about a second per pass)")
    args = parser.parse_args(argv)
    Path(args.work).mkdir(parents=True, exist_ok=True)

    state = setup(args)
    out: dict = {
        "workload": args.workload,
        "phase": args.phase,
        "ready_at": time.monotonic(),
        "env": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "jobs": args.jobs,
            "fidelity": state["fidelity"],
        },
    }
    if args.phase == "setup":
        out.update(state.get("fill", {}))
        print(json.dumps(out), flush=True)
        return 0

    trace = None
    if args.trace:
        import layers

        trace = layers.install()
    loop = Loop()
    loop_start = time.perf_counter()
    if args.workload == "many-flows":
        out.update(measure_many_flows(args, state, loop, trace))
    else:
        out.update(measure_fig6(args, state, loop, trace))
    out.update(
        loop_s=time.perf_counter() - loop_start,
        walls=loop.walls,
        failed=loop.failed_ops,
        failures=loop.failures,
        rss_kb={
            "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        },
    )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
