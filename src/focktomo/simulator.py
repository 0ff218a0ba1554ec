"""Seeded synthetic homodyne runs: a calibration block of vacuum quadratures
followed by a signal block drawn from the efficiency mixture, both passed
through an affine detector map raw = scale * X + offset.  The two blocks are
a run's only structure: rows [0, n_vacuum) of the raw values, then the rest.

Quadratures are drawn as the mixture they are: each event is a photon with
probability eta, else vacuum.  A vacuum draw is N(0, 1/4), i.e. z0 / 2 for a
standard normal z0.  A one-photon draw has the marginal pr_1(X) =
sqrt(2/pi) 4 X^2 exp(-2 X^2), so |2X| is chi-distributed with three degrees
of freedom: the draw is sign(z0) sqrt(z0^2 + z1^2 + z2^2) / 2, two more
standard normals on top of the vacuum one (the sign of z0 is independent of
its square).

False trigger events ("dark counts") replace a fraction d of signal events
with vacuum.  The mixture family is linear in eta, so a dark event is a
photon draw with eta = 0, and each signal event is a photon with probability
eta * (1 - d); the simulator draws that one Bernoulli per event.

Reproducibility: one integer seed is split with numpy's SeedSequence into two
independent PCG64 streams (vacuum block, signal block).  Each stream first
advances past n draws, where format_version=2 drew the n phases that no
analysis reads, so every seed's raw values are those format 2 stored, bit for
bit.  Then it draws one photon uniform per event, one standard normal per
event, and two standard normals per photon event.  Files record this stream
as rng=numpy-pcg64-mixture.  The run's raw values are allocated once, and
each block's draws, in that order, land straight in its slice of them.

The library reads and writes one file format, format_version=3 (see
write_dataset).  scripts/convert.py converts an earlier format to it, and
reads that format's header with this module's header reader.
"""

from __future__ import annotations

import os
import stat
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DatasetFormatError,
    ValidationError,
    check_count,
    check_positive,
    check_unit_interval,
)
from .kvtext import format_kv, parse_kv

FORMAT_VERSION = 3
RNG_NAME = "numpy-pcg64-mixture"


@dataclass(frozen=True)
class DetectorModel:
    """Affine detector response with an optional false-trigger rate: scale
    positive and finite, offset finite, dark_fraction in [0, 1); floats."""

    scale: float = 1.0
    offset: float = 0.0
    dark_fraction: float = 0.0

    def __post_init__(self) -> None:
        check_positive("detector scale", self.scale)
        if not np.isfinite(self.offset):
            raise ValidationError("detector offset must be finite")
        if not (0.0 <= self.dark_fraction < 1.0):
            raise ValidationError(
                f"dark_fraction must lie in [0, 1), got {self.dark_fraction}"
            )
        for name in ("scale", "offset", "dark_fraction"):
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class RunSpec:
    """Complete description of one synthetic run: eta_true in [0, 1], and
    n_vacuum, n_fock and seed integers >= 0 (not bool), not both counts 0,
    kept as a Python float and ints (so a report can be written as JSON)."""

    eta_true: float
    n_vacuum: int
    n_fock: int
    detector: DetectorModel = field(default_factory=DetectorModel)
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "eta_true", float(check_unit_interval("eta_true", self.eta_true)))
        for name in ("n_vacuum", "n_fock", "seed"):
            object.__setattr__(self, name, check_count(name, getattr(self, name), 0))
        if self.n_vacuum == 0 and self.n_fock == 0:
            raise ValidationError("run must contain at least one sample")


@dataclass
class HomodyneDataset:
    """Arrays for one run plus the RunSpec that produced it: rows [0,
    spec.n_vacuum) are the vacuum block, the rest the signal block, and
    vacuum_values and fock_values are views of raw_value, not copies."""

    spec: RunSpec
    raw_value: np.ndarray
    rng_name: str = RNG_NAME

    @property
    def vacuum_values(self) -> np.ndarray:
        return self.raw_value[:self.spec.n_vacuum]

    @property
    def fock_values(self) -> np.ndarray:
        return self.raw_value[self.spec.n_vacuum:]

    @property
    def n_samples(self) -> int:
        return int(self.raw_value.size)


def sample_quadrature(eta: float, size: int, rng) -> np.ndarray:
    """Draw `size` dimensionless quadratures from the efficiency mixture at
    the scalar efficiency `eta`: one uniform and one standard normal per
    sample from `rng`, then two more standard normals per photon event.
    They are drawn into the one returned array, as generate_run draws each
    block into its slice of the run."""
    if np.ndim(eta) != 0:
        raise ValidationError(f"eta must be a scalar, got shape {np.shape(eta)}")
    eta = check_unit_interval("eta", eta)
    x = np.empty(check_count("size", size, 0))
    _sample_into(x, eta, rng)
    return x


def _sample_into(x: np.ndarray, eta: float, rng) -> None:
    # sample_quadrature's draws, in its order, written into the contiguous
    # float64 array x: the uniforms land in x and leave only the photon mask,
    # the standard normals z overwrite them, and x becomes z / 2, with the
    # chi-3 draw at each photon event.
    rng.random(out=x)
    photon = x < eta
    rng.standard_normal(out=x)
    z0 = x[photon]
    x *= 0.5
    extra = rng.standard_normal((z0.size, 2))
    x[photon] = np.copysign(0.5 * np.sqrt(z0 * z0 + np.sum(extra * extra, axis=1)), z0)


def generate_run(spec: RunSpec) -> HomodyneDataset:
    """Generate a full run from its spec; deterministic in spec.seed.  The
    run's raw values are one array, and each block's stream draws straight
    into its slice, so no block is held twice.

    Raises ValidationError if the detector map scale * X + offset overflows
    to a non-finite raw value for any event."""
    det = spec.detector
    raw = np.empty(spec.n_vacuum + spec.n_fock)
    blocks = (raw[:spec.n_vacuum], raw[spec.n_vacuum:])
    etas = (0.0, spec.eta_true * (1.0 - det.dark_fraction))
    for seq, block, eta in zip(np.random.SeedSequence(spec.seed).spawn(2), blocks, etas):
        # Each block's stream first skips the draws format_version=2 spent on
        # phases.  advance takes a Python int: a numpy integer overflows in it.
        _sample_into(block, eta, np.random.Generator(np.random.PCG64(seq).advance(block.size)))
    with np.errstate(over="ignore"):
        raw *= det.scale
        raw += det.offset
    if not np.all(np.isfinite(raw)):
        raise ValidationError(f"detector map scale * X + offset overflows for "
                              f"scale={det.scale}, offset={det.offset}")
    return HomodyneDataset(spec=spec, raw_value=raw)


# Header keys, all required when reading, with their types.
_HEADER_TYPES = {"format_version": int, "rng": str, "seed": int, "eta_true": float,
                 "scale": float, "offset": float, "dark_fraction": float,
                 "n_vacuum": int, "n_fock": int}

# The line that ends the header; the binary body follows it.
_END_HEADER = "# end_header"

# How read_dataset's errors name the converter of the earlier formats.
_CONVERTER = "scripts/convert.py OLD NEW"

# The first buffer for a body read from a pipe, in bytes.
_PIPE_CHUNK = 1 << 20


def write_dataset(dataset: HomodyneDataset, path) -> None:
    """Write a run in format_version=3: '# key=value' header lines, the line
    '# end_header', then the body, the n_vacuum + n_fock raw values as
    little-endian float64 and nothing else.

    The run must pass read_dataset's checks: raw_value holds the spec's
    n_vacuum + n_fock rows, all finite.  rng_name must be printable with no
    surrounding whitespace, so that it reads back unchanged.  A
    ValidationError is raised before `path` is opened."""
    spec, det = dataset.spec, dataset.spec.detector
    name = dataset.rng_name
    if not (isinstance(name, str) and name.isprintable() and name == name.strip()):
        raise ValidationError(f"rng_name must be printable, with no surrounding "
                              f"whitespace, got {name!r}")
    raw = _check_body(dataset.raw_value, spec.n_vacuum + spec.n_fock, ValidationError)
    header = format_kv({
        "format_version": FORMAT_VERSION, "rng": name,
        "seed": spec.seed, "eta_true": spec.eta_true, "scale": det.scale,
        "offset": det.offset, "dark_fraction": det.dark_fraction,
        "n_vacuum": spec.n_vacuum, "n_fock": spec.n_fock,
    }, prefix="# ")
    with open(path, "wb") as fh:
        fh.write("\n".join([*header, _END_HEADER, ""]).encode("utf-8"))
        fh.write(np.ascontiguousarray(raw, dtype="<f8"))


def _check_body(raw_value, n: int, error) -> np.ndarray:
    # The body rules shared by read_dataset and write_dataset; raises `error`
    # naming the first one broken.  Returns the raw values as an array.
    raw_value = np.asarray(raw_value, dtype=float)
    if raw_value.shape != (n,):
        raise error(f"raw_value must be 1-d of length n_vacuum + n_fock = {n}, "
                    f"got shape {raw_value.shape}")
    if not np.all(np.isfinite(raw_value)):
        raise error("non-finite sample values")
    return raw_value


def _read_header(fh) -> tuple[list[tuple[int, str]], bytes | None]:
    # The header is the leading block of '#' and blank lines, ended by an
    # '# end_header' line.  Returns its (line number, text after '#') pairs,
    # and None if the end line was found, leaving fh at the first body byte,
    # else the first line that is neither (b"" at the end of the file).  fh is
    # only read forward, so it may be a pipe.  Only header lines are decoded.
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


def _run_spec(header: dict) -> RunSpec:
    # The RunSpec of a header parsed with _HEADER_TYPES.
    return RunSpec(
        eta_true=header["eta_true"], n_vacuum=header["n_vacuum"], n_fock=header["n_fock"],
        detector=DetectorModel(scale=header["scale"], offset=header["offset"],
                               dark_fraction=header["dark_fraction"]),
        seed=header["seed"],
    )


def _read_floats(fh) -> tuple[np.ndarray, int]:
    # The rest of fh, read in place into a writable float64 array (a last
    # partial float is left unset), and the number of bytes read.  The buffer
    # is sized by the bytes present, never by the header: a regular file's
    # remaining size plus one spare float, so that the end shows as a short
    # read; from a pipe, _PIPE_CHUNK bytes.  Whenever a read fills it, it grows
    # by half and _PIPE_CHUNK bytes.
    st = os.fstat(fh.fileno())
    size = st.st_size - fh.tell() if stat.S_ISREG(st.st_mode) else _PIPE_CHUNK
    buf = np.empty(max(size, 0) // 8 + 1, dtype="<f8")
    filled = 0
    while True:
        with memoryview(buf).cast("B") as raw:
            got = fh.readinto(raw[filled:])
        if not got:
            break
        filled += got
        if filled == buf.nbytes:
            buf.resize(buf.size + buf.size // 2 + _PIPE_CHUNK // 8, refcheck=False)
    buf.resize(-(-filled // 8), refcheck=False)  # no view of buf is left
    return buf, filled


def read_dataset(path) -> HomodyneDataset:
    """Read a dataset written by write_dataset, validating header and body.

    The header is the leading block of '#' lines, decoded as UTF-8, and the
    line '# end_header' ends it; unknown keys are ignored.  A file that ends,
    or holds any other line, before the end line is rejected with a message
    naming scripts/convert.py, the converter of the earlier formats; so is a
    format_version=2 file.  Any other format_version but 3 is rejected.  The
    body is exactly 8 * (n_vacuum + n_fock) bytes, read as write_dataset
    writes them, and passes the checks write_dataset makes.  The file is
    read once, front to back, so `path` may be a pipe.  The header is parsed
    and checked before any body byte is read, so a rejected header costs no
    body read.  The body is read in place into one float64 buffer, sized by
    the bytes the file holds and never by the header's counts, which is the
    returned raw_value (writable, not copied)."""
    with open(path, "rb") as fh:
        pairs, first_line = _read_header(fh)
        if first_line is not None:
            raise DatasetFormatError(f"dataset has no '{_END_HEADER}' line; a version 1 "
                                     f"text file converts with {_CONVERTER}")
        header = parse_kv(pairs, _HEADER_TYPES, "header", required=_HEADER_TYPES)
        version = header["format_version"]
        if version != FORMAT_VERSION:
            hint = f"; a version {version} file converts with {_CONVERTER}"
            raise DatasetFormatError(f"unsupported format_version {version}, expected "
                                     f"{FORMAT_VERSION}{hint if version in (1, 2) else ''}")
        spec = _run_spec(header)
        body, nbytes = _read_floats(fh)
    n = spec.n_vacuum + spec.n_fock
    if nbytes != 8 * n:
        raise DatasetFormatError(f"binary body holds {nbytes} bytes, expected 8 * "
                                 f"(n_vacuum + n_fock) = {8 * n}")
    raw = _check_body(body, n, DatasetFormatError)
    return HomodyneDataset(spec=spec, raw_value=raw, rng_name=header["rng"])
