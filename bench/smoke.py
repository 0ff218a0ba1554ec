"""Smoke test of the benchmark at tiny scale (20k + 2k events, 4 bootstrap
replicates).  Run from the repository root:

    python3 bench/smoke.py

For every workload, untraced and traced, it checks that the run exits 0,
prints every metric named in BENCHMARK.json with its unit, and has no failed
operation.  It also checks that the benchmark refuses to run, without
printing a result, in a directory that holds only BENCHMARK.json and the
benchmark's own files.  Exits 1 on any failure.  It is a script, not a
pytest module, so the tier-1 test suite does not collect it.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("reference", "large", "reanalysis")


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_run(workload: str, trace: int, expected_units: dict) -> list[str]:
    proc = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}: {proc.stderr.strip()[-500:]}")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    if units != expected_units:
        problems.append(f"{where}: metrics/units {units} differ from BENCHMARK.json")
    for name, m in result["metrics"].items():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{where}: {name} = {m['value']!r}")
    if trace == 0 and result["metrics"].get("success_rate", {}).get("value") != 1.0:
        problems.append(f"{where}: error_rate is not 0")
    return problems


def check_refuses_without_sources() -> list[str]:
    bare = BENCH_DIR / "work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(BENCH_DIR, bare / "bench",
                        ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, "--workload", "reference", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["benchmark ran without the focktomo sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = check_refuses_without_sources()
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check_run(workload, trace, expected[trace])
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
