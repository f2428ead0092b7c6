"""Smoke test of the benchmark at its smallest size.

    python3 perfbench/smoke.py [--workload NAME ...]

Runs ``run.py`` on every workload with ``--seconds 1``, untraced and
traced, and checks that

* every end-to-end metric of ``BENCHMARK.json`` is printed with its unit,
* every per-layer metric is present in the traced run,
* ``correct`` is true and the error rate is 0,
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  command fails without printing a result.

Takes about two minutes.  Exits 1 and names each problem on failure.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_run(workload: str, trace: int) -> list[str]:
    where = f"{workload} --trace {trace}"
    done = run(ROOT, workload, trace)
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr.strip()[-500:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] or report["failures"]:
        problems.append(f"{where}: not correct: {report['failures']}")
    if report["error_rate"] > 0:
        problems.append(f"{where}: error rate {report['error_rate']}")
    if result["attempted"] < 1:
        problems.append(f"{where}: no op attempted")
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    if sorted(metrics) != sorted(metric["name"] for metric in wanted):
        problems.append(f"{where}: metrics {sorted(metrics)}")
    for metric in wanted:
        got = metrics.get(metric["name"], {})
        if got.get("unit") != metric["unit"] or not isinstance(got.get("value"), float):
            problems.append(f"{where}: {metric['name']} printed as {got}")
    if not trace and not report["digest"]:
        problems.append(f"{where}: no output digest")
    return problems


def check_bare_directory() -> list[str]:
    """The command must fail, printing no result, without the program."""
    bare = ROOT / ".perfbench-work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


def main(argv: list[str] | None = None) -> int:
    names = [workload["name"] for workload in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)
    problems = check_bare_directory()
    for workload in args.workload or names:
        for trace in (0, 1):
            found = check_run(workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}",
                  flush=True)
            problems.extend(found)
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
