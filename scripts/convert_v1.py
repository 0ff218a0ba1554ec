#!/usr/bin/env python3
"""Convert a format_version=1 text dataset to the current binary format.

    python3 scripts/convert_v1.py OLD NEW

Format version 1, which focktomo simulate wrote before the binary body, is
the nine '# key=value' header lines with no '# end_header' line, then one
'source phase raw_value' line per event: source is V (vacuum) or F
(signal), and the floats are written as repr writes them.  The file is UTF-8
text throughout, and every non-blank line after the header is a sample, so
a '#' line after the first sample is rejected.  The source column must read
n_vacuum times V, then n_fock times F; the error names the first sample that
differs, a missing or an extra one included.  The rng tag is kept:
rng=numpy-pcg64 marks files from the earlier inverse-CDF sampler, all of
them version 1, and rng=numpy-pcg64-mixture the mixture sampler.

The run is written with focktomo.simulator.write_dataset, whose checks (n
finite phases in [0, 2 pi) and n finite raw values) the samples must pass.
Every float reads back bit for bit.  OLD is read once, front to back, so it
may be a pipe.  A malformed OLD prints 'error: ...' and exits 3, and NEW is
not written.
"""

from __future__ import annotations

import argparse
import io
import sys

import numpy as np

from focktomo.cli import EXIT_OK, EXIT_VALIDATION
from focktomo.errors import DatasetFormatError, ValidationError
from focktomo.kvtext import parse_kv
from focktomo.simulator import (
    _END_HEADER,
    _HEADER_TYPES,
    DetectorModel,
    HomodyneDataset,
    RunSpec,
    write_dataset,
)

# One format_version=1 sample line and its two source tokens.  The source
# field is two characters wide so that a longer token such as "VX" is read
# whole and rejected, not truncated to "V".
_SAMPLE_DTYPE = np.dtype([("source", "U2"), ("phase", float), ("raw_value", float)])
SOURCE_VACUUM, SOURCE_FOCK = "V", "F"


def _read_header(fh) -> tuple[list[tuple[int, str]], bytes | None]:
    # The header is the leading block of '#' and blank lines, ended early by
    # an '# end_header' line.  Returns its (line number, text after '#')
    # pairs, and None if the end line was found, leaving fh at the first body
    # byte, else the first body line (b"" at the end of the file).  fh is only
    # read forward, so it may be a pipe.  Only header lines are decoded.
    header: list[tuple[int, str]] = []
    lineno = 0
    while True:
        line = fh.readline()
        stripped = line.strip()
        if stripped == _END_HEADER.encode():
            return header, None
        if not line or (stripped and not stripped.startswith(b"#")):
            return header, line
        lineno += 1
        if stripped:
            try:
                header.append((lineno, stripped[1:].decode("utf-8")))
            except UnicodeDecodeError as exc:
                raise DatasetFormatError(f"line {lineno}: header is not UTF-8 text: {exc}"
                                         ) from exc


def _text_body(text: str, n_vacuum: int, n_fock: int):
    # format_version=1: one 'source phase raw_value' line per sample, whose
    # source column reads n_vacuum times V, then n_fock times F.
    if not text:
        rows = np.empty(0, dtype=_SAMPLE_DTYPE)
    else:
        try:
            rows = np.loadtxt(io.StringIO(text, newline=None), dtype=_SAMPLE_DTYPE,
                              comments=None, ndmin=1)
        except ValueError as exc:
            raise DatasetFormatError(
                f"expected sample lines 'source phase raw_value' with numeric fields: {exc}"
            ) from exc
    # "" marks the end of the data, so a missing or extra sample differs too.
    got = np.append(rows["source"], "")
    want = np.array([SOURCE_VACUUM, SOURCE_FOCK, ""])[np.searchsorted(
        [n_vacuum, n_vacuum + n_fock], np.arange(got.size), side="right")]
    differs = np.flatnonzero(got != want)
    if differs.size:
        row = int(differs[0])
        found, expected = (repr(str(s)) if s else "none" for s in (got[row], want[row]))
        raise DatasetFormatError(f"sample {row + 1}: source {found}, expected {expected}; "
                                 f"the source column must read n_vacuum={n_vacuum} times "
                                 f"'V', then n_fock={n_fock} times 'F'")
    return rows["phase"].copy(), rows["raw_value"].copy()


def read_v1(path) -> HomodyneDataset:
    """Read a format_version=1 file into a HomodyneDataset.  Its body is not
    checked here: write_dataset checks it."""
    with open(path, "rb") as fh:
        header_lines, first_line = _read_header(fh)
        body = fh.read()
    if first_line is not None:
        try:
            text = (first_line + body).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DatasetFormatError(f"sample lines are not UTF-8 text: {exc}") from exc
    header = parse_kv(header_lines, _HEADER_TYPES, "header", required=_HEADER_TYPES)
    version = header["format_version"]
    if version != 1:
        raise DatasetFormatError(f"unsupported format_version {version}, expected 1")
    if first_line is None:
        raise DatasetFormatError(f"format_version=1 takes no '{_END_HEADER}' line")
    spec = RunSpec(
        eta_true=header["eta_true"], n_vacuum=header["n_vacuum"], n_fock=header["n_fock"],
        detector=DetectorModel(scale=header["scale"], offset=header["offset"],
                               dark_fraction=header["dark_fraction"]),
        seed=header["seed"],
    )
    phase, raw = _text_body(text, spec.n_vacuum, spec.n_fock)
    return HomodyneDataset(spec=spec, phase=phase, raw_value=raw, rng_name=header["rng"])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old", metavar="OLD", help="format_version=1 text dataset to read")
    p.add_argument("new", metavar="NEW", help="dataset file to write")
    args = p.parse_args(argv)
    try:
        dataset = read_v1(args.old)
        write_dataset(dataset, args.new)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"wrote {dataset.n_samples} samples (vacuum {dataset.spec.n_vacuum}, "
          f"signal {dataset.spec.n_fock}) to {args.new}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
