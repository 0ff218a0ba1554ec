"""Benchmark workloads and the operations they repeat.

`reference` and `large` time the command line round trip
`focktomo simulate` + `focktomo reconstruct` in child processes.
`reanalysis` times in-process analysis of one stored reference-size run.
In the traced run every workload replays its operation in-process, with a
span around each call into a module's public functions.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from focktomo import reconstruction
from focktomo.calibration import fit_vacuum, rescale
from focktomo.patterns import pattern_function
from focktomo.pipeline import ReconstructionConfig, reconstruct_dataset
from focktomo.reconstruction import (
    abel_inverse,
    bin_samples,
    bootstrap_profile,
    fit_efficiency,
    sample_diagonals,
    smooth_marginal,
    wigner_to_marginal,
)
from focktomo.report import build_report, write_histogram_table, write_profile_table
from focktomo.simulator import DetectorModel, RunSpec, generate_run, read_dataset, write_dataset
from focktomo.states import marginal_ppf

from checks import (
    Expected,
    check_bootstrap,
    check_forward,
    check_normalization,
    check_reconstruction,
    observed_from_outputs,
    observed_from_summary,
)
from spans import OPERATION, Tracer

# A child process that runs longer than this is killed and counted as a
# failed operation, so one run always ends within its time limit.
CHILD_TIMEOUT_S = 150.0
BANDWIDTH_SWEEP = (0.5, 0.75, 1.0, 1.5, 2.0)
N_BOOT = 32
SMOKE_N_BOOT = 4
SMOKE_N_VACUUM = 20_000
SMOKE_N_FOCK = 2_000
HIST_CROSS_CHECK = ReconstructionConfig(fit_method="hist", calibration_method="histogram")


@dataclass(frozen=True)
class Workload:
    name: str
    n_vacuum: int
    n_fock: int
    cli: bool
    eta: float = 0.553
    scale: float = 1.0
    offset: float = 0.0
    dark_fraction: float = 0.0
    n_boot: int = N_BOOT

    @property
    def n_events(self) -> int:
        return self.n_vacuum + self.n_fock

    def spec(self, seed: int) -> RunSpec:
        return RunSpec(
            eta_true=self.eta, n_vacuum=self.n_vacuum, n_fock=self.n_fock,
            detector=DetectorModel(scale=self.scale, offset=self.offset,
                                   dark_fraction=self.dark_fraction),
            seed=seed,
        )

    def simulate_args(self, seed: int, output: Path) -> list[str]:
        return ["simulate", "--eta", repr(self.eta), "--n-vacuum", str(self.n_vacuum),
                "--n-fock", str(self.n_fock), "--seed", str(seed),
                "--scale", repr(self.scale), "--offset", repr(self.offset),
                "--dark-fraction", repr(self.dark_fraction), "-o", str(output)]

    @property
    def expected(self) -> Expected:
        return Expected(eta=self.eta, n_vacuum=self.n_vacuum, n_fock=self.n_fock,
                        scale=self.scale, offset=self.offset,
                        dark_fraction=self.dark_fraction)


WORKLOADS = {
    # The paper's headline run through the command line.
    "reference": Workload("reference", 200_000, 12_000, cli=True),
    # Ten times the events with a non-trivial detector, so calibration and
    # the per-event dark-count path do real work and per-sample layers
    # dominate.
    "large": Workload("large", 2_000_000, 120_000, cli=True,
                      scale=1.7, offset=0.3, dark_fraction=0.02),
    # A stored reference-size run studied in-process: analysis only.
    "reanalysis": Workload("reanalysis", 200_000, 12_000, cli=False),
}


def smoke_variant(wl: Workload) -> Workload:
    """The same workload at tiny size, for the smoke test."""
    return replace(wl, n_vacuum=SMOKE_N_VACUUM, n_fock=SMOKE_N_FOCK, n_boot=SMOKE_N_BOOT)


def op_seed(seed: int, index: int) -> int:
    """Run seed of operation `index` (0 is the set-up) under workload `seed`."""
    return int(np.random.SeedSequence([seed % 2**32, index]).generate_state(1)[0])


@dataclass
class Context:
    """What every operation of one benchmark run shares."""

    workload: Workload
    seed: int
    work: Path
    child_env: dict
    stored: Path | None = None


# ---------------------------------------------------------------------------
# Child processes


def run_child(argv: list[str], env: dict, log: Path) -> tuple[float, float, int]:
    """Run one child process to completion; return (wall seconds, peak RSS
    in MB read with wait4 for this child alone, exit code)."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_cli(ctx: Context, args: list[str], log: Path) -> tuple[float, float]:
    wall, rss, code = run_child([sys.executable, "-m", "focktomo.cli", *args], ctx.child_env, log)
    if code != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-1:]
        raise RuntimeError(f"focktomo {args[0]} exited with {code}: {' '.join(tail)}")
    return wall, rss


def import_cli(ctx: Context) -> float:
    wall, _, code = run_child([sys.executable, "-c", "import focktomo.cli"],
                              ctx.child_env, ctx.work / "import.log")
    if code != 0:
        raise RuntimeError(f"importing focktomo.cli exited with {code}")
    return wall


# ---------------------------------------------------------------------------
# Set-up


def setup(ctx: Context) -> dict:
    """Warm imports and the OS file cache.  For `reanalysis`, write the
    stored run with `focktomo simulate` and give it its first analysis with
    `focktomo reconstruct`, as a user does before studying a run.  Returns
    timings."""
    if ctx.workload.cli:
        return {"import_s": import_cli(ctx)}
    ctx.stored = ctx.work / "stored.txt"
    args = ctx.workload.simulate_args(op_seed(ctx.seed, 0), ctx.stored)
    sim_s, _ = run_cli(ctx, args, ctx.work / "setup.log")
    outdir = ctx.work / "stored"
    rec_s, _ = run_cli(ctx, ["reconstruct", str(ctx.stored), "-o", str(outdir)],
                       ctx.work / "setup.log")
    failures = check_reconstruction(observed_from_outputs(outdir), ctx.workload.expected)
    if failures:
        raise RuntimeError(f"stored run fails its checks: {'; '.join(failures)}")
    return {"simulate_s": sim_s, "reconstruct_s": rec_s}


# ---------------------------------------------------------------------------
# Untraced operations


def cli_round_trip(ctx: Context, index: int) -> dict:
    """`focktomo simulate` then `focktomo reconstruct` on the new file."""
    wl = ctx.workload
    dataset = ctx.work / f"op{index}.txt"
    outdir = ctx.work / f"op{index}"
    sim_s, sim_rss = run_cli(ctx, wl.simulate_args(op_seed(ctx.seed, index), dataset),
                             ctx.work / "simulate.log")
    rec_s, rec_rss = run_cli(ctx, ["reconstruct", str(dataset), "-o", str(outdir)],
                             ctx.work / "reconstruct.log")
    size = dataset.stat().st_size
    dataset.unlink()
    failures = check_reconstruction(observed_from_outputs(outdir), wl.expected)
    shutil.rmtree(outdir)
    return {
        "wall_s": sim_s + rec_s,
        "events_per_s": wl.n_events / (sim_s + rec_s),
        "simulate_s": sim_s,
        "reconstruct_s": rec_s,
        "peak_rss_mb": max(sim_rss, rec_rss),
        "dataset_mb": size / 1e6,
        "failures": failures,
    }


def reanalysis(ctx: Context, index: int, tracer: Tracer, replay: bool) -> dict:
    """Study the stored run in-process: read, reconstruct, bootstrap the
    profile, check it forward, sweep the bandwidth and cross-check with the
    histogram methods.  With `replay` the pipeline's public steps run first
    and must agree bit for bit with reconstruct_dataset."""
    wl = ctx.workload
    start = time.perf_counter()
    with tracer.span(OPERATION, index):
        with tracer.span("simulator.read_dataset", index):
            dataset = read_dataset(ctx.stored)
        config = ReconstructionConfig()
        steps = pipeline_steps(dataset, config, tracer, index) if replay else None
        with tracer.span("pipeline.reconstruct_dataset", index):
            summary = reconstruct_dataset(dataset, config)
        with tracer.span("calibration.rescale", index):
            signal = rescale(dataset.fock_values, summary.calibration)
        with tracer.span("reconstruction.bootstrap_profile", index):
            boot = bootstrap_profile(signal, n_boot=wl.n_boot, seed=op_seed(ctx.seed, index),
                                     **profile_kwargs(config))
        with tracer.span("reconstruction.wigner_to_marginal", index):
            projected = wigner_to_marginal(summary.profile, summary.density.x)
        sweep = []
        for bandwidth_scale in BANDWIDTH_SWEEP:
            with tracer.span("pipeline.reconstruct_dataset", index):
                sweep.append(reconstruct_dataset(
                    dataset, ReconstructionConfig(bandwidth_scale=bandwidth_scale)))
        with tracer.span("pipeline.reconstruct_dataset", index):
            cross = reconstruct_dataset(dataset, HIST_CROSS_CHECK)
    wall = time.perf_counter() - start

    failures = check_reconstruction(observed_from_summary(summary), wl.expected)
    failures += check_bootstrap(boot.stderr)
    failures += check_forward(projected, summary.density.density)
    for result in sweep:
        failures += check_normalization(result.profile.normalization())
    failures += check_reconstruction(observed_from_summary(cross), wl.expected)
    if steps is not None:
        failures += compare_steps(steps, summary)
    if tracer.enabled:
        probe_patterns(signal, config, tracer, index)
        tracer.count("simulator.dataset_bytes", index, ctx.stored.stat().st_size)
    return {
        "wall_s": wall,
        "events_per_s": wl.n_events / wall,
        "failures": failures,
    }


def profile_kwargs(config: ReconstructionConfig) -> dict:
    """reconstruct_profile arguments that reproduce the pipeline's chain."""
    return dict(n_bins=config.n_bins, lo=-config.grid_max, hi=config.grid_max,
                bandwidth=config.bandwidth, bandwidth_scale=config.bandwidth_scale,
                grid_max=config.grid_max, grid_points=config.grid_points,
                r_max=config.r_max, n_radii=config.n_radii)


# ---------------------------------------------------------------------------
# Traced replay


def pipeline_steps(dataset, config: ReconstructionConfig, tracer: Tracer, op: int) -> dict:
    """The public steps of reconstruct_dataset, in its order, each in a span."""
    with tracer.span("calibration.fit_vacuum", op):
        cal = fit_vacuum(dataset.vacuum_values, method=config.calibration_method)
    with tracer.span("calibration.rescale", op):
        x = rescale(dataset.fock_values, cal)
    with tracer.span("reconstruction.fit_efficiency", op):
        eff = fit_efficiency(x, method=config.fit_method)
    with tracer.span("reconstruction.sample_diagonals", op):
        diags = sample_diagonals(x, n_max=config.n_max)
    with tracer.span("reconstruction.bin_samples", op):
        hist = bin_samples(x, n_bins=config.n_bins, lo=-config.grid_max, hi=config.grid_max)
    with tracer.span("reconstruction.smooth_marginal", op):
        dens = smooth_marginal(hist, bandwidth=config.bandwidth,
                               bandwidth_scale=config.bandwidth_scale,
                               grid_max=config.grid_max, grid_points=config.grid_points)
    with tracer.span("reconstruction.abel_inverse", op):
        prof = abel_inverse(dens, r_max=config.r_max, n_radii=config.n_radii)
    # Work the smoothing and inversion did, computed from array sizes.
    tracer.count("reconstruction.kernel_evals", op, dens.x.size * int(np.count_nonzero(hist.counts)))
    tracer.count("reconstruction.abel_nodes", op,
                 prof.radii.size * getattr(reconstruction, "_SIMPSON_NODES", 0))
    return {"calibration": cal, "efficiency": eff, "diagonals": diags,
            "histogram": hist, "density": dens, "profile": prof}


def compare_steps(steps: dict, summary) -> list[str]:
    """The step-by-step results must equal reconstruct_dataset's bit for bit."""
    hist, dens, prof = steps["histogram"], steps["density"], steps["profile"]
    same = (
        steps["calibration"] == summary.calibration
        and steps["efficiency"] == summary.efficiency
        and steps["diagonals"] == summary.diagonals
        and np.array_equal(hist.counts, summary.histogram.counts)
        and (hist.underflow, hist.overflow) == (summary.histogram.underflow,
                                                summary.histogram.overflow)
        and dens.bandwidth == summary.density.bandwidth
        and np.array_equal(dens.density, summary.density.density)
        and np.array_equal(prof.values, summary.profile.values)
    )
    return [] if same else ["pipeline steps and reconstruct_dataset differ"]


def replay_round_trip(ctx: Context, index: int, tracer: Tracer) -> dict:
    """In-process replay of the command line round trip: what `simulate`
    and `reconstruct` call, in their order, plus the pipeline's steps."""
    wl = ctx.workload
    path = ctx.work / f"replay{index}.txt"
    outdir = ctx.work / f"replay{index}"
    spec = wl.spec(op_seed(ctx.seed, index))
    config = ReconstructionConfig()
    start = time.perf_counter()
    with tracer.span(OPERATION, index):
        with tracer.span("simulator.generate_run", index):
            dataset = generate_run(spec)
        with tracer.span("simulator.write_dataset", index):
            write_dataset(dataset, path)
        del dataset
        with tracer.span("simulator.read_dataset", index):
            dataset = read_dataset(path)
        steps = pipeline_steps(dataset, config, tracer, index)
        with tracer.span("pipeline.reconstruct_dataset", index):
            summary = reconstruct_dataset(dataset, config)
        with tracer.span("report.build_report", index):
            report = build_report(summary, dataset, dataset_path=str(path))
        with tracer.span("report.write_tables", index):
            write_outputs(report, summary, outdir, str(path))
    wall = time.perf_counter() - start

    failures = compare_steps(steps, summary)
    failures += check_reconstruction(observed_from_outputs(outdir), wl.expected)
    tracer.count("simulator.dataset_bytes", index, path.stat().st_size)
    path.unlink()
    shutil.rmtree(outdir)
    if tracer.enabled:
        probe_patterns(rescale(dataset.fock_values, summary.calibration), config, tracer, index)
        probe_marginal_ppf(wl, spec.seed, tracer, index)
        with tracer.span("cli.import", index):
            import_cli(ctx)
    return {"wall_s": wall, "failures": failures}


def write_outputs(report, summary, outdir: Path, dataset_path: str) -> None:
    """The files `focktomo reconstruct` writes."""
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.txt").write_text(report.to_text())
    (outdir / "report.json").write_text(report.to_json())
    header = {"report_version": report.to_dict()["report_version"], "dataset": dataset_path,
              "bandwidth": summary.density.bandwidth, "eta_hat": summary.efficiency.eta_hat}
    write_profile_table(summary.profile, outdir / "wigner_profile.txt", header)
    write_histogram_table(summary.histogram, outdir / "marginal_histogram.txt", header)


# ---------------------------------------------------------------------------
# Standalone probes, outside the operation's own span


def probe_patterns(signal: np.ndarray, config: ReconstructionConfig, tracer: Tracer,
                   op: int) -> None:
    """The pattern functions sample_diagonals evaluates, on the same input."""
    with tracer.span("patterns.pattern_function", op):
        for n in range(config.n_max + 1):
            pattern_function(n, signal)


def probe_marginal_ppf(wl: Workload, seed: int, tracer: Tracer, op: int) -> None:
    """marginal_ppf on as many uniforms, and per-event efficiencies, as the
    run draws: one per vacuum and one per signal event."""
    rng = np.random.default_rng(seed)
    u_vacuum = rng.random(wl.n_vacuum)
    u_signal = rng.random(wl.n_fock)
    eta = np.where(rng.random(wl.n_fock) < wl.dark_fraction, 0.0, wl.eta)
    with tracer.span("states.marginal_ppf", op):
        marginal_ppf(0.0, u_vacuum)
        marginal_ppf(eta, u_signal)

