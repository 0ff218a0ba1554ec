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
    format_version: int = FORMAT_VERSION

    @property
    def vacuum_values(self) -> np.ndarray:
        return self.raw_value[self.source == SOURCE_VACUUM]

    @property
    def fock_values(self) -> np.ndarray:
        return self.raw_value[self.source == SOURCE_FOCK]

    @property
    def n_samples(self) -> int:
        return int(self.raw_value.size)


def sample_quadrature(eta, size, rng) -> np.ndarray:
    """Draw dimensionless quadratures from the efficiency mixture.

    `eta` may be a scalar or an array of per-event efficiencies of length
    `size` (pass size=None to take the shape from the array).  Draws one
    uniform and one standard normal per sample from `rng`, then two more
    standard normals per photon event.
    """
    eta = check_unit_interval("eta", eta)
    if size is None:
        if eta.ndim == 0:
            raise ValidationError("size=None requires an array of per-event efficiencies")
        size = eta.shape[0]
    size = check_count("size", size, 0)
    photon = rng.random(size) < eta
    z = rng.standard_normal(photon.size)
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
    """Write a run as text: '# key=value' header lines, then one line per
    sample with fields 'source phase raw_value'.  Floats are written with
    repr, the shortest string that reads back to the same double."""
    spec, det = dataset.spec, dataset.spec.detector
    header = format_kv({
        "format_version": dataset.format_version, "rng": dataset.rng_name,
        "seed": spec.seed, "eta_true": spec.eta_true, "scale": det.scale,
        "offset": det.offset, "dark_fraction": det.dark_fraction,
        "n_vacuum": spec.n_vacuum, "n_fock": spec.n_fock,
    }, prefix="# ")
    rows = zip(
        np.asarray(dataset.source).tolist(),
        np.asarray(dataset.phase, dtype=float).tolist(),
        np.asarray(dataset.raw_value, dtype=float).tolist(),
    )
    body = "".join([f"{s} {p!r} {v!r}\n" for s, p, v in rows])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(header) + "\n")
        fh.write(body)


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
    source, phase, raw = rows["source"], rows["phase"], rows["raw_value"]
    unknown = (source != SOURCE_VACUUM) & (source != SOURCE_FOCK)
    if np.any(unknown):
        row = int(np.argmax(unknown))
        raise DatasetFormatError(f"sample {row + 1}: unknown source {str(source[row])!r}")
    if not np.all(np.isfinite(phase)) or not np.all(np.isfinite(raw)):
        raise DatasetFormatError("non-finite sample values")
    if np.any((phase < 0.0) | (phase >= _TWO_PI)):
        raise DatasetFormatError("phase outside [0, 2*pi)")

    n_v = int(np.count_nonzero(source == SOURCE_VACUUM))
    n_f = source.size - n_v
    if n_v != header["n_vacuum"] or n_f != header["n_fock"]:
        raise DatasetFormatError(
            f"sample counts (V={n_v}, F={n_f}) disagree with header "
            f"(V={header['n_vacuum']}, F={header['n_fock']})"
        )

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
        format_version=header["format_version"],
    )
