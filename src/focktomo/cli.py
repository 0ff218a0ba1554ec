"""Command line interface.

Subcommands: simulate (write a synthetic run), reconstruct (full analysis of
a dataset file), budget (combine an efficiency factor table), report (merge
reconstruction and budget outputs into one document).

Defaults may be overridden by a key=value config file named by the
FOCKTOMO_CONFIG environment variable; explicit flags always win. The
simulate defaults are in the settings table below; the reconstruct defaults
are those of focktomo.pipeline.ReconstructionConfig, which fills in every
setting that neither a flag nor the config file gives.

Each subcommand imports only the modules it runs: simulate loads
focktomo.simulator (with errors and kvtext), never the reconstruction chain.

Exit codes: 0 success, 2 usage error, 3 invalid input or file format,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from .errors import DatasetFormatError, NumericsError, ValidationError
from .kvtext import content_lines, parse_kv

ENV_CONFIG = "FOCKTOMO_CONFIG"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICS = 4

# The settings of each subcommand, in flag order: name -> (type, default,
# help, choices).  A setting is the flag --name (underscores as dashes) and
# the config file key name; a flag beats the config file, which beats the
# default.  A default of None leaves the setting out, so that
# ReconstructionConfig supplies its own.
_SETTINGS: dict[str, dict[str, tuple]] = {
    "simulate": {
        "eta": (float, 0.553, "true efficiency of the signal block", None),
        "n_vacuum": (int, 200000, "vacuum block size", None),
        "n_fock": (int, 12000, "signal block size", None),
        "seed": (int, 42, "run seed", None),
        "scale": (float, 1.0, "detector scale", None),
        "offset": (float, 0.0, "detector offset", None),
        "dark_fraction": (float, 0.0, "fraction of signal events replaced by vacuum draws", None),
    },
    "reconstruct": {
        "bandwidth_scale": (float, None, "multiplier on the rule-based smoothing bandwidth",
                            None),
        "fit_method": (str, None, "efficiency fit method", ("mle", "hist")),
        "grid_max": (float, None, "half-width of the smoothing grid", None),
        "grid_points": (int, None,
                        "number of smoothing grid points (odd, >= 101); the histogram has "
                        "(grid_points - 1) / 2 bins over [-grid_max, grid_max], two grid "
                        "steps each", None),
    },
}


def _load_env_config() -> dict:
    path = os.environ.get(ENV_CONFIG)
    if not path:
        return {}
    with open(path) as fh:
        text = fh.read()
    types = {key: spec[0] for table in _SETTINGS.values() for key, spec in table.items()}
    config = parse_kv(content_lines(text), types, "config")
    unknown = [key for key in config if key not in types]
    if unknown:
        raise DatasetFormatError(f"config file {path!r}: unknown key {unknown[0]!r}")
    return config


def _add_settings(parser: argparse.ArgumentParser, command: str) -> None:
    for name, (caster, _, text, choices) in _SETTINGS[command].items():
        parser.add_argument("--" + name.replace("_", "-"), dest=name, type=caster,
                            choices=choices, help=text)


def _settings(args: argparse.Namespace, config: dict) -> dict:
    # Each setting of the command: its flag if given, else the config value,
    # else the default; a setting with none of the three is left out.
    out = {}
    for name, (_, default, _, _) in _SETTINGS[args.command].items():
        value = getattr(args, name)
        value = value if value is not None else config.get(name, default)
        if value is not None:
            out[name] = value
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="focktomo",
        description="Simulate and reconstruct phase-randomized homodyne runs "
                    "of a single-photon state.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic run and write it to a file")
    _add_settings(p_sim, "simulate")
    p_sim.add_argument("-o", "--output", required=True, help="dataset file to write")

    p_rec = sub.add_parser("reconstruct", help="run the full analysis on a dataset file")
    p_rec.add_argument("dataset", help="dataset file written by simulate")
    _add_settings(p_rec, "reconstruct")
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


def cmd_simulate(args: argparse.Namespace, config: dict) -> int:
    from .simulator import DetectorModel, RunSpec, generate_run, write_dataset

    settings = _settings(args, config)
    detector = DetectorModel(**{f.name: settings.pop(f.name) for f in fields(DetectorModel)})
    spec = RunSpec(eta_true=settings.pop("eta"), detector=detector, **settings)
    dataset = generate_run(spec)
    write_dataset(dataset, args.output)
    print(f"wrote {dataset.n_samples} samples "
          f"(vacuum {spec.n_vacuum}, signal {spec.n_fock}) to {args.output}")
    return EXIT_OK


def cmd_reconstruct(args: argparse.Namespace, config: dict) -> int:
    from .pipeline import ReconstructionConfig, prepare_run
    from .report import build_report, write_histogram_table, write_profile_table
    from .simulator import read_dataset

    dataset = read_dataset(args.dataset)
    summary = prepare_run(dataset, ReconstructionConfig(**_settings(args, config))).reconstruct()
    report = build_report(summary, dataset, dataset_path=str(args.dataset))

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


def cmd_budget(args: argparse.Namespace, config: dict) -> int:
    from .budget import combine, default_factors, load_factors
    from .report import budget_to_kv

    factors = load_factors(args.factors) if args.factors else default_factors()
    result = combine(factors)
    text = budget_to_kv(result, factors)
    if args.output:
        Path(args.output).write_text(text)
    sys.stdout.write(text)
    return EXIT_OK


def _reject_constant(name: str):
    raise DatasetFormatError(f"{name} is not a valid JSON number")


def cmd_report(args: argparse.Namespace, config: dict) -> int:
    from .report import merge_reports, parse_budget_kv

    try:
        recon = json.loads(Path(args.reconstruction).read_text(), parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"cannot parse {args.reconstruction!r}: {exc}") from exc
    budget = None
    if args.budget:
        budget = parse_budget_kv(Path(args.budget).read_text())
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
    # budget, factor table, config), exits 3; a numerical failure exits 4.
    try:
        config = _load_env_config()
        return _COMMANDS[args.command](args, config)
    except (ValidationError, OSError, UnicodeDecodeError, NumericsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS if isinstance(exc, NumericsError) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
