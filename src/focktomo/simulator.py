"""Seeded synthetic homodyne runs: a calibration block of vacuum quadratures
followed by a signal block drawn from the efficiency mixture, both passed
through an affine detector map raw = scale * X + offset.

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
independent PCG64 streams (vacuum block, signal block).  Each stream draws,
block by block: all phase uniforms, then one photon uniform per event, then
one standard normal per event, then two standard normals per photon event.
Files record this stream as rng=numpy-pcg64-mixture; rng=numpy-pcg64 marks
files from the earlier inverse-CDF sampler, which read the same way.
"""

from __future__ import annotations

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

FORMAT_VERSION = 1
RNG_NAME = "numpy-pcg64-mixture"

SOURCE_VACUUM = "V"
SOURCE_FOCK = "F"

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class DetectorModel:
    """Affine detector response with an optional false-trigger rate: scale
    positive and finite, offset finite, dark_fraction in [0, 1)."""

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


@dataclass(frozen=True)
class RunSpec:
    """Complete description of one synthetic run: eta_true in [0, 1], and
    n_vacuum, n_fock and seed integers >= 0 (not bool), not both counts 0."""

    eta_true: float
    n_vacuum: int
    n_fock: int
    detector: DetectorModel = field(default_factory=DetectorModel)
    seed: int = 0

    def __post_init__(self) -> None:
        check_unit_interval("eta_true", self.eta_true)
        for name in ("n_vacuum", "n_fock", "seed"):
            check_count(name, getattr(self, name), 0)
        if self.n_vacuum == 0 and self.n_fock == 0:
            raise ValidationError("run must contain at least one sample")


@dataclass
class HomodyneDataset:
    """Arrays for one run plus the RunSpec that produced it."""

    spec: RunSpec
    source: np.ndarray
    phase: np.ndarray
    raw_value: np.ndarray
    rng_name: str = RNG_NAME

    @property
    def vacuum_values(self) -> np.ndarray:
        return self.raw_value[self.source == SOURCE_VACUUM]

    @property
    def fock_values(self) -> np.ndarray:
        return self.raw_value[self.source == SOURCE_FOCK]

    @property
    def n_samples(self) -> int:
        return int(self.raw_value.size)


def sample_quadrature(eta: float, size: int, rng) -> np.ndarray:
    """Draw `size` dimensionless quadratures from the efficiency mixture at
    the scalar efficiency `eta`: one uniform and one standard normal per
    sample from `rng`, then two more standard normals per photon event.
    """
    if np.ndim(eta) != 0:
        raise ValidationError(f"eta must be a scalar, got shape {np.shape(eta)}")
    eta = check_unit_interval("eta", eta)
    size = check_count("size", size, 0)
    photon = rng.random(size) < eta
    z = rng.standard_normal(size)
    x = 0.5 * z
    z0 = z[photon]
    extra = rng.standard_normal((z0.size, 2))
    x[photon] = np.copysign(0.5 * np.sqrt(z0 * z0 + np.sum(extra * extra, axis=1)), z0)
    return x


def generate_run(spec: RunSpec) -> HomodyneDataset:
    """Generate a full run from its spec; deterministic in spec.seed.

    Raises ValidationError if the detector map scale * X + offset overflows
    to a non-finite raw value for any event."""
    seq_vacuum, seq_fock = np.random.SeedSequence(spec.seed).spawn(2)
    det = spec.detector

    rng_v = np.random.Generator(np.random.PCG64(seq_vacuum))
    phase_v = _TWO_PI * rng_v.random(spec.n_vacuum)
    x_v = sample_quadrature(0.0, spec.n_vacuum, rng_v)

    rng_f = np.random.Generator(np.random.PCG64(seq_fock))
    phase_f = _TWO_PI * rng_f.random(spec.n_fock)
    x_f = sample_quadrature(spec.eta_true * (1.0 - det.dark_fraction), spec.n_fock, rng_f)

    source = np.concatenate([
        np.full(spec.n_vacuum, SOURCE_VACUUM, dtype="U1"),
        np.full(spec.n_fock, SOURCE_FOCK, dtype="U1"),
    ])
    phase = np.concatenate([phase_v, phase_f])
    with np.errstate(over="ignore"):
        raw = det.scale * np.concatenate([x_v, x_f]) + det.offset
    if not np.all(np.isfinite(raw)):
        raise ValidationError(f"detector map scale * X + offset overflows for "
                              f"scale={det.scale}, offset={det.offset}")
    return HomodyneDataset(spec=spec, source=source, phase=phase, raw_value=raw)


# Header keys, all required when reading, with their types.
_HEADER_TYPES = {"format_version": int, "rng": str, "seed": int, "eta_true": float,
                 "scale": float, "offset": float, "dark_fraction": float,
                 "n_vacuum": int, "n_fock": int}


def write_dataset(dataset: HomodyneDataset, path) -> None:
    """Write a run as text: '# key=value' header lines (format_version always
    FORMAT_VERSION), then one line per sample with fields 'source phase
    raw_value', each line ending in '\n'.  Floats are written as repr writes
    them, the shortest string that reads back to the same double.

    The body must pass read_dataset's checks: sources V or F, finite phases
    in [0, 2 pi), finite raw values, and V/F counts equal to the spec's
    n_vacuum/n_fock.  A ValidationError is raised before `path` is opened."""
    spec, det = dataset.spec, dataset.spec.detector
    source, phase, raw = _check_body(dataset.source, dataset.phase, dataset.raw_value,
                                     spec.n_vacuum, spec.n_fock, ValidationError)
    header = format_kv({
        "format_version": FORMAT_VERSION, "rng": dataset.rng_name,
        "seed": spec.seed, "eta_true": spec.eta_true, "scale": det.scale,
        "offset": det.offset, "dark_fraction": det.dark_fraction,
        "n_vacuum": spec.n_vacuum, "n_fock": spec.n_fock,
    }, prefix="# ")
    vacuum = source == SOURCE_VACUUM
    # One column per line: source, space, phase, space, raw_value, newline.
    lines = np.zeros((2 * _FIELD + 4, min(source.size, _BLOCK)), dtype=np.uint8)
    lines[[1, _FIELD + 2]] = ord(" ")
    lines[-1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("utf-8"))
        for lo in range(0, source.size, _BLOCK):
            block = lines[:, :min(_BLOCK, source.size - lo)]
            rows = slice(lo, lo + block.shape[1])
            block[0] = np.where(vacuum[rows], ord(SOURCE_VACUUM), ord(SOURCE_FOCK))
            _format_repr(phase[rows], block[2:_FIELD + 2])
            _format_repr(raw[rows], block[_FIELD + 3:-1])
            text = np.ascontiguousarray(block.T)
            fh.write(text[text != 0].tobytes())


def _check_body(source, phase, raw_value, n_vacuum: int, n_fock: int, error):
    # The body rules shared by read_dataset and write_dataset; raises `error`
    # naming the first one broken.  Returns the three columns as arrays.
    source = np.asarray(source)
    phase = np.asarray(phase, dtype=float)
    raw_value = np.asarray(raw_value, dtype=float)
    if source.ndim != 1 or phase.shape != source.shape or raw_value.shape != source.shape:
        raise error(f"source, phase and raw_value must be 1-d of one length, got shapes "
                    f"{source.shape}, {phase.shape} and {raw_value.shape}")
    vacuum = source == SOURCE_VACUUM
    unknown = ~vacuum & (source != SOURCE_FOCK)
    if np.any(unknown):
        row = int(np.argmax(unknown))
        raise error(f"sample {row + 1}: unknown source {str(source[row])!r}")
    if not np.all(np.isfinite(phase)) or not np.all(np.isfinite(raw_value)):
        raise error("non-finite sample values")
    if np.any((phase < 0.0) | (phase >= _TWO_PI)):
        raise error("phase outside [0, 2*pi)")
    n_v = int(np.count_nonzero(vacuum))
    if n_v != n_vacuum or source.size - n_v != n_fock:
        raise error(f"sample counts (V={n_v}, F={source.size - n_v}) disagree with "
                    f"n_vacuum={n_vacuum}, n_fock={n_fock}")
    return source, phase, raw_value


# write_dataset formats the body _BLOCK rows at a time, so its memory is
# bounded by the block, not the run.  A formatted float takes _FIELD bytes:
# the longest repr of a double, '-2.2250738585072014e-308', has 24 characters.
_BLOCK = 16384
_FIELD = 24
_POW10 = np.array([float(10 ** k) for k in range(23)])  # each exact
# The ASCII digits of 0000..9999, four bytes per number.
_DIGITS4 = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
            ).astype(np.uint8).view(np.uint32).ravel()
_BODY_ROW = np.arange(_FIELD - 1, dtype=np.int8)[:, None]


def _two_product(a, b):
    # (p, err) with p + err == a * b exactly (Dekker's product of the
    # Veltkamp halves), for a and b far from overflow and underflow.
    def split(x):
        c = 134217729.0 * x  # 2**27 + 1
        hi = c - (c - x)
        return hi, x - hi
    (ah, al), (bh, bl) = split(a), split(b)
    p = a * b
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _nearest(b_hi, x_lo, pw):
    # For B = b_hi + x_lo, b_hi an integer below 2**30 and pw = 10**j dividing
    # 1e9: a multiple m of pw with B in about [m, m + pw], and the signed
    # distances B - m and m + pw - B.  Both are exact when below 32 in size:
    # they are multiples of 2**-46, as x_lo is, and |x_lo| <= 8.
    q = np.floor((b_hi + x_lo) / pw)
    r = b_hi - q * pw
    return q * pw, r + x_lo, (pw - r) - x_lo


def _format_repr(values: np.ndarray, out: np.ndarray) -> None:
    # Writes repr(float(v)) for each of the finite `values` down the columns
    # of `out`, a (_FIELD, n) uint8 array, padded with NUL bytes.
    #
    # For a = |v| in [1e-4, 1e15), where repr is positional, the digits
    # follow from the rule repr implements (Gay 1990; Adams, Ryu 2018): of
    # the decimals that read back as a, those with the fewest digits, and of
    # those the nearest to a.  Scaled by 10**k, k <= 21 so that 10**k is
    # exact, a becomes X = x_hi + x_lo in (1e16, 1e17), an exact pair, and
    # its half-ulp the exact H = 10**k 2**(e - 54) in (0.55, 11.2).  The
    # doubles within H of X read back as a, so the digits are the nearest
    # multiple of the largest 10**j within H of X (j = 0 always qualifies).
    # Two cases need no care in this range.  X is a multiple of its
    # granularity g = 2**(e - 53 + k) <= 1/2, as are these multiples, while H
    # is an odd multiple of g/2: no multiple sits on the interval's end, so
    # whether an even mantissa closes it never matters.  A power of two, whose
    # interval reaches only H/2 below, is an exact decimal of at most 15
    # digits: X is then a multiple of 100, and the answer on either interval.
    #
    # Values outside the range go through repr one at a time, and so do the
    # cases the rule leaves to it: X outside (1e16, 1e17) (a log10 miss near
    # a power of ten), j >= 9 (a shortest form that drops 9 or more digits),
    # and an exact tie between two multiples.
    n = values.size
    a = np.abs(values)
    fast = (a >= 1e-4) & (a < 1e15)
    a = np.where(fast, a, 1.0)
    _, e = np.frexp(a)
    k = 16 - np.floor(np.log10(a)).astype(np.intp)
    scale = _POW10[k]
    x_hi, x_lo = _two_product(a, scale)
    half_ulp = np.ldexp(scale, e - 54)
    # X = top * 1e9 + B, with B = b_hi + x_lo; b_hi is exact.
    top = np.floor(x_hi / 1e9)
    b_hi = x_hi - top * 1e9

    # Within H is a multiple of 10**j for every j up to the largest: test
    # j = 1, 2, ... on the values still in.
    j = np.zeros(n, dtype=np.intp)
    live = np.arange(n)
    for jj in range(1, 10):
        _, below, above = _nearest(b_hi[live], x_lo[live], _POW10[jj])
        live = live[np.minimum(np.abs(below), np.abs(above)) <= half_ulp[live]]
        if live.size == 0:
            break
        j[live] = jj
    pw = _POW10[j]
    low_part, below, above = _nearest(b_hi, x_lo, pw)
    below, above = np.abs(below), np.abs(above)
    low_part += (above < below) * pw
    carry = np.floor(low_part / 1e9)  # -1 or 0, or 1 where j = 9
    top += carry
    low_part -= carry * 1e9
    slow = ~fast | (x_hi <= 1e16) | (x_hi >= 1e17) | (j == 9) | (below == above)

    # The 17 digits top * 1e9 + low_part behind seven '0's, as six chunks
    # of four.
    u = top * 10.0 + np.floor(low_part / 1e8)
    w = low_part - np.floor(low_part / 1e8) * 1e8
    chunks = np.empty((6, n))
    chunks[0] = 0.0
    chunks[1] = np.floor(u / 1e8)
    chunks[2] = np.floor(u / 1e4) - chunks[1] * 1e4
    chunks[3] = u - np.floor(u / 1e4) * 1e4
    chunks[4] = np.floor(w / 1e4)
    chunks[5] = w - chunks[4] * 1e4
    chars = _DIGITS4[chunks.astype(np.intp)].view(np.uint8).reshape(6, n, 4)
    digits = np.empty((_FIELD, n), dtype=np.uint8)
    digits.reshape(6, 4, n)[...] = chars.transpose(0, 2, 1)
    digits = digits[2:]  # five '0's, then the 17 digits

    # The text is digits[start:point] + '.' + digits[point:end]: `decpt`
    # digits before the point and a single '0' if there are none, then the
    # digits up to the last nonzero one, or a single '0'.
    decpt = (17 - k).astype(np.int8)
    point = 5 + decpt
    start = 4 + np.minimum(decpt, 1)
    end = np.maximum(22 - j.astype(np.int8), point + 1)
    body = out[1:]
    body[:-1] = digits
    body[-1] = 0
    np.copyto(body[1:], digits, where=_BODY_ROW[1:] > point)
    body[point, np.arange(n)] = ord(".")
    np.copyto(body[:5], 0, where=_BODY_ROW[:5] < start)  # start <= 5
    np.copyto(body[14:], 0, where=_BODY_ROW[14:] > end)  # end >= 14
    out[0] = np.where(values < 0.0, ord("-"), 0)

    rows = np.flatnonzero(slow)
    if rows.size:
        text = [repr(v).encode("ascii") for v in values[rows].tolist()]
        out[:, rows] = np.array(text, dtype=f"S{_FIELD}").view(np.uint8).reshape(-1, _FIELD).T


# One sample line.  The source field is two characters wide so that a longer
# token such as "VX" is read whole and rejected, not truncated to "V".
_SAMPLE_DTYPE = np.dtype([("source", "U2"), ("phase", float), ("raw_value", float)])


def _read_header(fh) -> tuple[list[tuple[int, str]], bool]:
    # The leading block of '#' and blank lines is the header.  Returns its
    # (line number, text after '#') pairs and whether a sample line follows,
    # leaving fh at that line.
    header: list[tuple[int, str]] = []
    lineno = 0
    while True:
        start = fh.tell()
        line = fh.readline()
        if not line:
            return header, False
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            fh.seek(start)
            return header, True
        lineno += 1
        if stripped:
            header.append((lineno, stripped[1:]))


def read_dataset(path) -> HomodyneDataset:
    """Read a dataset written by write_dataset, validating header and body.

    The header is the leading block of '#' lines; every later non-blank line
    must be a sample, so a '#' line after the first sample is rejected.  The
    samples are parsed straight from the file, which is never held whole."""
    try:
        with open(path, encoding="utf-8") as fh:
            header_lines, has_samples = _read_header(fh)
            # Unknown header keys are ignored.
            header = parse_kv(header_lines, _HEADER_TYPES, "header", required=_HEADER_TYPES)
            if header["format_version"] != FORMAT_VERSION:
                raise DatasetFormatError(f"unsupported format_version "
                                         f"{header['format_version']}, expected {FORMAT_VERSION}")
            try:
                rows = (np.loadtxt(fh, dtype=_SAMPLE_DTYPE, comments=None, ndmin=1)
                        if has_samples else np.empty(0, dtype=_SAMPLE_DTYPE))
            except UnicodeDecodeError:  # a ValueError too; reported as not UTF-8 below
                raise
            except ValueError as exc:
                raise DatasetFormatError(
                    f"expected sample lines 'source phase raw_value' with numeric fields: {exc}"
                ) from exc
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"dataset is not UTF-8 text: {exc}") from exc
    source, phase, raw = _check_body(rows["source"], rows["phase"], rows["raw_value"],
                                     header["n_vacuum"], header["n_fock"], DatasetFormatError)

    spec = RunSpec(
        eta_true=header["eta_true"], n_vacuum=header["n_vacuum"], n_fock=header["n_fock"],
        detector=DetectorModel(scale=header["scale"], offset=header["offset"],
                               dark_fraction=header["dark_fraction"]),
        seed=header["seed"],
    )
    return HomodyneDataset(
        spec=spec,
        source=source.astype("U1"),
        phase=np.ascontiguousarray(phase),
        raw_value=np.ascontiguousarray(raw),
        rng_name=header["rng"],
    )
