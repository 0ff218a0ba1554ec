#!/usr/bin/env python3
"""Probe how the kernel bandwidth moves the reconstructed Wigner origin.

    python3 scripts/bandwidth_sensitivity.py DATASET [--scales 0.5,1,2]

Reconstructs one stored run (a dataset file written by focktomo simulate)
several times, scaling the rule-of-thumb kernel bandwidth by each requested
factor, and reports W(0) read off the inverted radial profile next to the
bandwidth-independent references (the rho_11 sampler and the efficiency
fit).  The efficiency fit and the diagonals work on the raw samples, so only
the profile column should move: the run is prepared once for all scales.

Every scale is reconstructed before anything is printed, so a failure
leaves stdout empty: a dataset the reader rejects, or a scale the
reconstruction rejects, prints 'error: ...' to stderr and exits 3; a
numerical failure exits 4.  A malformed --scales is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import sys

from focktomo.cli import EXIT_NUMERICS, EXIT_OK, EXIT_VALIDATION
from focktomo.errors import NumericsError, ValidationError
from focktomo.pipeline import ReconstructionConfig, prepare_run
from focktomo.simulator import read_dataset


def float_list(text: str) -> list[float]:
    # a comma-separated list of floats, blank items skipped; argparse turns
    # a ValueError or ArgumentTypeError here into a usage error
    scales = [float(s) for s in text.split(",") if s.strip()]
    if not scales:
        raise argparse.ArgumentTypeError("no bandwidth scales given")
    return scales


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("dataset", metavar="DATASET", help="dataset file written by focktomo simulate")
    p.add_argument("--scales", type=float_list, default="0.5,1.0,2.0",
                   help="comma-separated bandwidth multipliers to try")
    args = p.parse_args(argv)
    try:
        dataset = read_dataset(args.dataset)
        run = prepare_run(dataset)
        summaries = [run.reconstruct(ReconstructionConfig(bandwidth_scale=s)) for s in args.scales]
    except (ValidationError, OSError, NumericsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS if isinstance(exc, NumericsError) else EXIT_VALIDATION

    spec = dataset.spec
    print(f"eta_true={spec.eta_true}  n_vacuum={spec.n_vacuum}  n_fock={spec.n_fock}"
          f"  seed={spec.seed}")
    print()
    print("  scale   bandwidth   W(0) profile   W(0) from rho_11   eta_hat")
    for s, summary in zip(args.scales, summaries):
        print(f"  {s:5.2f}   {summary.density.bandwidth:9.5f}"
              f"   {summary.wigner_origin_reconstructed:+12.5f}"
              f"   {summary.wigner_origin_from_rho:+16.5f}"
              f"   {summary.efficiency.eta_hat:7.4f}")
    if len(summaries) > 1:
        origins = [summary.wigner_origin_reconstructed for summary in summaries]
        print()
        print(f"W(0) spread across scales: {max(origins) - min(origins):.5f}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
