"""Benchmark of the focktomo simulate -> dataset file -> reconstruct chain.

Run from the repository root:

    python3 bench/run.py --workload reference --seed 1 --seconds 20 --trace 0

One process runs the workload's operation in a closed loop, one operation at
a time, for --seconds, checks every operation's outputs, and prints each
metric by name and unit.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  --trace 0 gives the
end-to-end metrics; --trace 1 replays the operation in-process with a span
around each call into a module and gives the per-layer metrics.  Results and
spans are written under bench/results/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import OPERATION, Tracer, module_shares, per_op_totals

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / "work"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 5
# No operation starts unless it is expected to end before this many seconds
# after start-up, so a run ends well inside its 180 s limit.
RUN_LIMIT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "simulate_s": "s",
    "reconstruct_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "dataset_mb": "MB",
    "success_rate": "ratio",
}
# Per-layer metrics: span names (self time per operation, unit s) and
# counts computed from array sizes.
LAYER_SPANS = (
    "cli.import",
    "states.marginal_ppf",
    "simulator.generate_run",
    "simulator.write_dataset",
    "simulator.read_dataset",
    "calibration.fit_vacuum",
    "calibration.rescale",
    "reconstruction.fit_efficiency",
    "reconstruction.sample_diagonals",
    "patterns.pattern_function",
    "reconstruction.bin_samples",
    "reconstruction.smooth_marginal",
    "reconstruction.abel_inverse",
    "reconstruction.bootstrap_profile",
    "reconstruction.wigner_to_marginal",
    "pipeline.reconstruct_dataset",
    "report.build_report",
    "report.write_tables",
)
LAYER_COUNTS = {
    "simulator.dataset_bytes": "bytes",
    "reconstruction.kernel_evals": "count",
    "reconstruction.abel_nodes": "count",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("reference", "large", "reanalysis"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the operation loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (20k + 2k events, 4 bootstrap replicates)")
    return parser.parse_args(argv)


def limit_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the cores this process may use, in this
    process and its children, and return that count.  Must run before numpy
    is imported, which reads these variables once."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def run_metadata(args, nproc: int) -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except OSError:
        sha = None
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "src_lines": src_lines,
    }


def attempt(fn, *args, **kwargs) -> dict:
    """Run one operation; an exception counts as a failed operation."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # every failure is recorded and counted
        return {"failures": [f"{type(exc).__name__}: {exc}"]}


def closed_loop(seconds: float, started: float, operation) -> list[dict]:
    """Call operation(index) for index 1, 2, ... one at a time until
    `seconds` have passed, always at least once."""
    records: list[dict] = []
    loop_start = time.perf_counter()
    longest = 0.0
    index = 1
    while True:
        t0 = time.perf_counter()
        records.append(operation(index))
        longest = max(longest, time.perf_counter() - t0)
        now = time.perf_counter()
        if now - loop_start >= seconds or now - started + longest > RUN_LIMIT_S:
            return records
        index += 1


def median_of(records: list[dict], key: str):
    values = [r[key] for r in records if not r["failures"] and key in r]
    return (statistics.median(values), len(values)) if values else (None, 0)


def end_to_end_metrics(ctx, setups, records) -> dict:
    """Name -> (value, samples) for every end-to-end metric."""
    ok = [r for r in records if not r["failures"]]
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), len(setups)),
        "success_rate": (len(ok) / len(records), len(records)),
    }
    for key in ("wall_s", "events_per_s"):
        metrics[key] = median_of(records, key)
    if ctx.workload.cli:
        for key in ("simulate_s", "reconstruct_s", "peak_rss_mb", "dataset_mb"):
            metrics[key] = median_of(records, key)
    else:
        # The stored run is written and first reconstructed by the command
        # line during set-up; the studies then run in this process.
        for key in ("simulate_s", "reconstruct_s"):
            metrics[key] = (statistics.median(s[key] for s in setups), len(setups))
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
        metrics["dataset_mb"] = (ctx.stored.stat().st_size / 1e6, 1)
    return {name: metrics[name] for name in END_TO_END}


def layer_metrics(tracer, records) -> tuple[dict, dict]:
    """Name -> (value, samples) for every per-layer metric, and the share
    of the traced operation time each module covers."""
    totals = per_op_totals(tracer.spans, tracer.counts)
    ops = sorted({s["op"] for s in tracer.spans if s["name"] == OPERATION})
    metrics = {}
    for name in LAYER_SPANS:
        metrics[f"{name}_s"] = (statistics.median(totals[k].get(name, 0.0) for k in ops), len(ops))
    for name in LAYER_COUNTS:
        metrics[name] = (statistics.median(totals[k].get(name, 0) for k in ops), len(ops))
    overheads = [r["traced_s"] - r["wall_s"] for r in records if "traced_s" in r]
    metrics["trace.overhead_s"] = (statistics.median(overheads) if overheads else None,
                                   len(overheads))
    shares = module_shares(tracer.spans, OPERATION)
    if shares:
        op_time = sum(s["end"] - s["start"] for s in tracer.spans if s["name"] == OPERATION)
        smooth_abel = sum(totals[k].get(n, 0.0) for k in ops for n in (
            "reconstruction.smooth_marginal", "reconstruction.abel_inverse"))
        shares["smooth_marginal+abel_inverse"] = smooth_abel / op_time
    return metrics, shares


def layer_units() -> dict:
    units = {f"{name}_s": "s" for name in LAYER_SPANS}
    units.update(LAYER_COUNTS)
    units["trace.overhead_s"] = "s"
    return units


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "focktomo" / "cli.py").is_file():
        print(f"error: focktomo sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = limit_blas_threads()
    sys.path.insert(0, str(SRC))
    import focktomo

    if Path(focktomo.__file__).resolve().parent != SRC / "focktomo":
        print(f"error: imported focktomo from {focktomo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads as ws

    wl = ws.WORKLOADS[args.workload]
    if args.smoke:
        wl = ws.smoke_variant(wl)
    child_env = dict(os.environ)
    child_env.pop("FOCKTOMO_CONFIG", None)
    child_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    RESULTS_DIR.mkdir(exist_ok=True)
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    ctx = ws.Context(workload=wl, seed=args.seed, work=work, child_env=child_env)
    meta = run_metadata(args, nproc)
    tracer = Tracer(enabled=bool(args.trace))
    try:
        setups = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            timings = ws.setup(ctx)
            setups.append({"setup_s": time.perf_counter() - t0, **timings})

        if not args.trace:
            if wl.cli:
                operation = functools.partial(attempt, ws.cli_round_trip, ctx)
            else:
                operation = functools.partial(attempt, ws.reanalysis, ctx,
                                              tracer=tracer, replay=False)
            records = closed_loop(args.seconds, started, operation)
            metrics = end_to_end_metrics(ctx, setups, records)
            units = END_TO_END
            shares = None
        else:
            untraced = Tracer(enabled=False)
            replay = (ws.replay_round_trip if wl.cli
                      else functools.partial(ws.reanalysis, replay=True))

            def pair(k: int) -> dict:
                # The same replay untraced and traced, in alternating order;
                # the difference in wall time is the tracing overhead.
                if k % 2:
                    plain = attempt(replay, ctx, k, untraced)
                    traced = attempt(replay, ctx, k, tracer)
                else:
                    traced = attempt(replay, ctx, k, tracer)
                    plain = attempt(replay, ctx, k, untraced)
                record = {"attempts": 2, "failed": bool(plain["failures"]) + bool(traced["failures"]),
                          "failures": plain["failures"] + traced["failures"]}
                if not record["failures"]:
                    record.update(wall_s=plain["wall_s"], traced_s=traced["wall_s"])
                return record

            records = closed_loop(args.seconds, started, pair)
            metrics, shares = layer_metrics(tracer, records)
            units = layer_units()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # In the traced run each record is a pair of replays.
    attempted = sum(r.get("attempts", 1) for r in records)
    failed = sum(r.get("failed", bool(r["failures"])) for r in records)
    for index, r in enumerate(records, start=1):
        for failure in r["failures"]:
            print(f"operation {index} failed: {failure}", file=sys.stderr)
    correct = failed == 0 and all(v is not None for v, _ in metrics.values())

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    result = {
        "meta": meta,
        "setup": setups,
        "operations": records,
        "metrics": {name: {"value": v, "unit": units[name], "samples": n}
                    for name, (v, n) in metrics.items()},
        "module_shares": shares,
        "attempted": attempted,
        "failed": failed,
    }
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        tracer.write_jsonl(RESULTS_DIR / f"{stem}.spans.jsonl")

    print("meta " + json.dumps(meta, sort_keys=True))
    for name, (value, n) in metrics.items():
        print(f"{name:40s} {value!r:>24} {units[name]:6s} median of {n}")
    if shares:
        for module, share in shares.items():
            print(f"share of traced operation time  {module:32s} {share:.3f}")
    print(f"error_rate {failed / attempted!r} ratio ({failed} failed of {attempted} attempted)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
