"""Repository benchmark: Fig-6 sweeps cold and warm, and 1000 flows.

    python3 perfbench/run.py --workload fig6-cold --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Each run spawns fresh interpreters
(``workload.py``) with a pinned environment: set-up samples alternating
with two timed loops (``SCHEDULES``), each loop taking half of
``--seconds``, reported as medians.  With ``--trace 1`` it makes one
set-up, one untraced and one traced timed loop and reports the
per-layer metrics instead of the end-to-end ones.

Stdout carries a human-readable table, a JSON ``report`` line (pinned
environment, simulated outputs and their digest, error rate, failures)
and, last, one JSON result line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Exits 2 when the checkout holds no ``src/repro`` package to measure,
1 when a child process fails outright, and 0 otherwise (op failures are
reported in the result, not by the exit code).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD = HERE / "workload.py"
WORK_DIR = ROOT / ".perfbench-work"

WORKLOADS = ("fig6-cold", "fig6-warm", "many-flows")
# The order of an untraced run's phases: S is a set-up sample, M a timed
# loop.  Set-ups alternate with the two timed loops, so a slow spell of
# the machine hits one timed loop, not the whole run, and set-up time is a
# median of samples spread over the run.  A set-up of fig6-cold or
# many-flows is imports and the source digest (~0.3 s, with a per-sample
# spread of ~14 %), so it is sampled seven times; fig6-warm's is a whole
# cold pass filling the cache (~14 s) that each timed loop then reads, so
# it is sampled once per loop.
SCHEDULES = {"fig6-cold": "SSMSSSMSS", "fig6-warm": "SMSM", "many-flows": "SSMSSSMSS"}
# A traced run: one set-up, one untraced timed loop, then the traced one.
TRACED_SCHEDULE = "SM"
# A whole run (set-ups plus timed runs) must end within this many seconds.
RUN_DEADLINE_S = 170.0

# Environment variables that change what or how the program runs; the
# benchmark clears them so every run measures the defaults.
PINNED_UNSET = (
    "REPRO_CACHE",
    "REPRO_CACHE_DIR",
    "REPRO_FIDELITY",
    "REPRO_JOBS",
    "REPRO_SCALE",
    "REPRO_MAX_EVENTS",
    "REPRO_CHECK_INVARIANTS",
)

PER_LAYER = (
    ("sim.engine.events", "count"),
    ("sim.engine.self_s", "s"),
    ("sim.link.sends", "count"),
    ("sim.link.self_s", "s"),
    ("sim.aqm.sends", "count"),
    ("sim.aqm.drops", "count"),
    ("sim.aqm.self_s", "s"),
    ("sim.flow.hops", "count"),
    ("sim.flow.self_s", "s"),
    ("protocols.acks", "count"),
    ("protocols.self_s", "s"),
    ("core.mis", "count"),
    ("core.self_s", "s"),
    ("harness.runner.calls", "count"),
    ("harness.runner.self_s", "s"),
    ("harness.cache.lookups", "count"),
    ("harness.cache.hits", "count"),
    ("harness.cache.hit_ratio", "ratio"),
    ("harness.cache.load_s", "s"),
    ("harness.cache.store_s", "s"),
    ("harness.cache.bytes_read", "bytes"),
    ("harness.cache.bytes_written", "bytes"),
    ("harness.parallel.pools", "count"),
    ("harness.parallel.dispatch_s", "s"),
    ("harness.parallel.worker_idle_frac", "ratio"),
    ("trace.overhead", "ratio"),
)


class ChildFailed(RuntimeError):
    """A workload process crashed, timed out or printed no result."""


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        return os.cpu_count() or 1


def pinned_env() -> dict:
    env = {key: value for key, value in os.environ.items() if key not in PINNED_UNSET}
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)  # workload.py puts the checkout's src/ first
    return env


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run ``workload.py`` fresh; returns (spawn time, its JSON line).

    The child gets its own process group so a timeout also stops the
    pool workers it forked.
    """
    started = time.monotonic()
    child = subprocess.Popen(
        [sys.executable, str(WORKLOAD), *args],
        cwd=ROOT,
        env=pinned_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise ChildFailed(f"workload.py {' '.join(args)} passed the run deadline") from None
    finally:
        # Any stray worker the child left behind goes with its group.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise ChildFailed(f"workload.py {' '.join(args)} exited {child.returncode}")
    return started, json.loads(lines[-1])


def percentile(sorted_values: list[float], fraction: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(len(sorted_values) * fraction))]


def layer_metrics(measure: dict, overhead: float) -> dict:
    """Per-op per-layer metrics from a traced run's totals."""
    layers = measure["layers"]
    calls, self_s, counters = layers["calls"], layers["self_s"], layers["counters"]
    ops = max(1, len(measure["walls"]))
    cache_dir = measure.get("cache_dir", {"stores": 0, "bytes_written": 0})
    lookups = counters["lookups"]
    hits = lookups - cache_dir["stores"]
    capacity = counters["capacity_s"]
    values = {
        "sim.engine.events": counters["events"] / ops,
        "sim.engine.self_s": self_s["sim.engine"] / ops,
        "sim.link.sends": calls["sim.link"] / ops,
        "sim.link.self_s": self_s["sim.link"] / ops,
        "sim.aqm.sends": calls["sim.aqm"] / ops,
        "sim.aqm.drops": counters["aqm_drops"] / ops,
        "sim.aqm.self_s": self_s["sim.aqm"] / ops,
        "sim.flow.hops": counters["hops"] / ops,
        "sim.flow.self_s": self_s["sim.flow"] / ops,
        "protocols.acks": calls["protocols"] / ops,
        "protocols.self_s": self_s["protocols"] / ops,
        "core.mis": counters["mis"] / ops,
        "core.self_s": self_s["core"] / ops,
        "harness.runner.calls": calls["harness.runner"] / ops,
        "harness.runner.self_s": self_s["harness.runner"] / ops,
        "harness.cache.lookups": lookups / ops,
        "harness.cache.hits": hits / ops,
        "harness.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "harness.cache.load_s": counters["load_s"] / ops,
        "harness.cache.store_s": counters["store_s"] / ops,
        "harness.cache.bytes_read": counters["bytes_read"] / ops,
        "harness.cache.bytes_written": cache_dir["bytes_written"] / ops,
        "harness.parallel.pools": counters["pools"] / ops,
        "harness.parallel.dispatch_s": counters["dispatch_s"] / ops,
        "harness.parallel.worker_idle_frac": (
            1.0 - counters["task_s"] / capacity if capacity else 0.0
        ),
        "trace.overhead": overhead,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def ops_per_s(measure: dict) -> float:
    done = len(measure["walls"]) - measure["failed"]
    return done / sum(measure["walls"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}; nothing to measure",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    jobs = nproc()
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--jobs", str(jobs), "--work", str(work)]
    # The timed loops share --seconds: two untraced ones, or one untraced
    # and one traced.
    timed = ["--phase", "measure", "--seconds", str(args.seconds / 2)]
    setups, measures, traced = [], [], None
    try:
        for step in TRACED_SCHEDULE if args.trace else SCHEDULES[args.workload]:
            if step == "S":
                spawned, ready = spawn([*common, "--phase", "setup"], deadline)
                setups.append((ready["ready_at"] - spawned, ready))
            else:
                # Digesting the stored runs is slow and the same every loop.
                digest = ["--digest", "0" if measures else "1"]
                measures.append(
                    spawn([*common, *timed, *digest, "--trace", "0"], deadline)[1]
                )
        if args.trace:
            traced = spawn([*common, *timed, "--digest", "0", "--trace", "1"], deadline)[1]
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    runs = measures if traced is None else [*measures, traced]
    fills = [ready for _, ready in setups if "outputs" in ready]
    attempted = sum(len(run["walls"]) for run in runs) + sum(f["attempted"] for f in fills)
    failed = sum(run["failed"] for run in [*runs, *fills])
    failures = [message for run in [*runs, *fills] for message in run["failures"]]
    problems = []
    # Every timed run, traced or not, and every cold fill of fig6-warm's
    # set-up must produce the same simulated outputs.
    outputs = {run["outputs"] for run in [*runs, *fills]}
    if len(outputs) > 1:
        problems.append(f"runs' simulated outputs disagree: {sorted(outputs)}")
    if traced is not None:
        counters = traced["layers"]["counters"]
        stores = traced.get("cache_dir", {}).get("stores", 0)
        if counters["lookups"] - stores != counters["hits_seen"]:
            problems.append(
                f"cache hits from the directory ({counters['lookups']} lookups - "
                f"{stores} stores) != hits seen at load_run ({counters['hits_seen']})"
            )
    failed += len(problems)
    failures.extend(problems)

    walls = sorted(wall for run in measures for wall in run["walls"])
    op_wall: dict = {"n": len(walls), "p50": statistics.median(walls)}
    if len(walls) >= 100:
        op_wall["p90"] = percentile(walls, 0.9)
    first = measures[0]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "env": {**first["env"], "unset": list(PINNED_UNSET), "PYTHONHASHSEED": "0"},
        "setup_samples_s": [setup_s for setup_s, _ in setups],
        "ops_per_s_samples": [ops_per_s(run) for run in measures],
        "error_rate": failed / max(1, attempted),
        "op_wall_s": op_wall,
        "sim": first["sim"],
        "digest": first["digest"],
        "failures": failures,
    }
    for key in ("passes", "driver_cache_stats", "cache_dir"):
        if key in first:
            report[key] = [run[key] for run in measures]

    if traced is None:
        metrics = {
            "setup_s": {"value": statistics.median(s for s, _ in setups), "unit": "s"},
            "ops_per_s": {"value": statistics.median(report["ops_per_s_samples"]),
                          "unit": "1/s"},
            "op_wall_s.p50": {"value": op_wall["p50"], "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(
                    max(run["rss_kb"].values()) / 1024.0 for run in measures
                ),
                "unit": "MB",
            },
        }
    else:
        overhead = ops_per_s(first) / ops_per_s(traced)
        metrics = layer_metrics(traced, overhead)
        report["layer_totals"] = traced["layers"]

    for name, metric in metrics.items():
        print(f"{args.workload:11s} {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
