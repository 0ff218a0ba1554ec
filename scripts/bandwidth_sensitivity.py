#!/usr/bin/env python3
"""Probe how the kernel bandwidth moves the reconstructed Wigner origin.

Reconstructs one synthetic run several times, scaling the rule-of-thumb
kernel bandwidth by each requested factor, and reports W(0) read off the
inverted radial profile next to the bandwidth-independent references
(the rho_11 sampler and the efficiency fit).  The efficiency fit and the
diagonals work on the raw samples, so only the profile column should move:
reconstruct_dataset computes the calibration, fit and diagonals once per
sweep and reuses them at each later scale.
"""

from __future__ import annotations

import argparse
import sys

from focktomo import (
    DetectorModel,
    ReconstructionConfig,
    RunSpec,
    generate_run,
    reconstruct_dataset,
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--scales", type=str, default="0.5,1.0,2.0",
                   help="comma-separated bandwidth multipliers to try")
    p.add_argument("--eta", type=float, default=0.553)
    p.add_argument("--n-vacuum", type=int, default=200_000)
    p.add_argument("--n-fock", type=int, default=12_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--dark-fraction", type=float, default=0.0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    scales = [float(s) for s in args.scales.split(",") if s.strip()]
    if not scales:
        print("no bandwidth scales given", file=sys.stderr)
        return 2

    spec = RunSpec(
        eta_true=args.eta,
        n_vacuum=args.n_vacuum,
        n_fock=args.n_fock,
        detector=DetectorModel(dark_fraction=args.dark_fraction),
        seed=args.seed,
    )
    print(f"eta_true={args.eta}  n_vacuum={args.n_vacuum}  n_fock={args.n_fock}"
          f"  seed={args.seed}")
    dataset = generate_run(spec)

    print()
    print("  scale   bandwidth   W(0) profile   W(0) from rho_11   eta_hat")
    origins = []
    for s in scales:
        summary = reconstruct_dataset(dataset, ReconstructionConfig(bandwidth_scale=s))
        w0 = summary.wigner_origin_reconstructed
        origins.append(w0)
        print(f"  {s:5.2f}   {summary.density.bandwidth:9.5f}   {w0:+12.5f}"
              f"   {summary.wigner_origin_from_rho:+16.5f}"
              f"   {summary.efficiency.eta_hat:7.4f}")

    if len(origins) > 1:
        print()
        print(f"W(0) spread across scales: {max(origins) - min(origins):.5f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
