#!/usr/bin/env python3
"""Convert a format_version=1 or 2 dataset to the current format, 3.

    python3 scripts/convert.py OLD NEW

Both earlier formats store a local-oscillator phase per event beside its raw
value.  No analysis reads it, and format 3 stores the raw values only, so
the converter checks the phase column as the earlier readers did (every
phase in [0, 2 pi)) and then drops it.  Every raw value is kept bit for bit.

Format version 1, which focktomo simulate wrote before the binary body, is
the nine '# key=value' header lines with no '# end_header' line, then one
'source phase raw_value' line per event: source is V (vacuum) or F
(signal), and the floats are written as repr writes them.  The file is UTF-8
text throughout, and every non-blank line after the header is a sample, so
a '#' line after the first sample is rejected.  The source column must read
n_vacuum times V, then n_fock times F; the error names the first sample that
differs, a missing or an extra one included.

Format version 2 is the header, the line '# end_header', then exactly
16 * (n_vacuum + n_fock) bytes: the n phases, then the n raw values, each a
little-endian float64.

The rng tag is kept: rng=numpy-pcg64 marks files from the earlier
inverse-CDF sampler, all of them version 1, and rng=numpy-pcg64-mixture the
mixture sampler, whose format 2 files convert to the bytes focktomo
simulate now writes for the same header.

The run is written with focktomo.simulator.write_dataset, whose checks (n
finite raw values) the samples must pass.  OLD is read once, front to back,
so it may be a pipe, and its header is checked before its body is read.  A
malformed OLD prints 'error: ...' and exits 3, and NEW is not written.
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
    _read_floats,
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


def _text_body(data: bytes, n_vacuum: int, n_fock: int):
    # format_version=1: one 'source phase raw_value' line per sample, whose
    # source column reads n_vacuum times V, then n_fock times F.
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"sample lines are not UTF-8 text: {exc}") from exc
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
    return rows["phase"], rows["raw_value"].copy()


def _binary_body(fh, n: int):
    # format_version=2: the n phases, then the n raw values, as little-endian
    # float64, read in place; the raw values are a view of the buffer.
    body, nbytes = _read_floats(fh)
    if nbytes != 16 * n:
        raise DatasetFormatError(f"binary body holds {nbytes} bytes, expected 16 * "
                                 f"(n_vacuum + n_fock) = {16 * n}")
    return body[:n], body[n:]


def read_old(path) -> HomodyneDataset:
    """Read a format_version=1 or 2 file into a HomodyneDataset, checking
    its phases and dropping them.  Its raw values are not checked here:
    write_dataset checks them."""
    with open(path, "rb") as fh:
        header_lines, first_line = _read_header(fh)
        header = parse_kv(header_lines, _HEADER_TYPES, "header", required=_HEADER_TYPES)
        version = header["format_version"]
        if version not in (1, 2):
            raise DatasetFormatError(f"unsupported format_version {version}, expected 1 or 2")
        if (first_line is None) != (version == 2):
            raise DatasetFormatError(f"format_version={version} takes "
                                     f"{'an' if version == 2 else 'no'} '{_END_HEADER}' line")
        spec = RunSpec(
            eta_true=header["eta_true"], n_vacuum=header["n_vacuum"], n_fock=header["n_fock"],
            detector=DetectorModel(scale=header["scale"], offset=header["offset"],
                                   dark_fraction=header["dark_fraction"]),
            seed=header["seed"],
        )
        if version == 1:
            phase, raw = _text_body(first_line + fh.read(), spec.n_vacuum, spec.n_fock)
        else:
            phase, raw = _binary_body(fh, spec.n_vacuum + spec.n_fock)
    # a NaN phase lies outside too
    if not np.all((phase >= 0.0) & (phase < 2.0 * np.pi)):
        raise DatasetFormatError("phase outside [0, 2*pi)")
    return HomodyneDataset(spec=spec, raw_value=raw, rng_name=header["rng"])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old", metavar="OLD", help="format_version=1 or 2 dataset to read")
    p.add_argument("new", metavar="NEW", help="dataset file to write")
    args = p.parse_args(argv)
    try:
        dataset = read_old(args.old)
        write_dataset(dataset, args.new)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"wrote {dataset.n_samples} samples (vacuum {dataset.spec.n_vacuum}, "
          f"signal {dataset.spec.n_fock}) to {args.new}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
