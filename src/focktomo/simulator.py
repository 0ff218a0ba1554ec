"""Seeded synthetic homodyne runs: a calibration block of vacuum quadratures
followed by a signal block drawn from the efficiency mixture, both passed
through an affine detector map raw = scale * X + offset.

False trigger events ("dark counts") replace a fraction of signal draws with
vacuum draws.  Because the mixture family is linear in eta, a dark fraction d
is statistically identical to lowering the efficiency to eta * (1 - d); the
simulator still draws them event-by-event so datasets carry the effect at the
sample level.

Quadratures are drawn by inverse-CDF sampling from the closed-form marginal:
each quantile uniform is mapped through states.marginal_ppf, a safeguarded
Newton iteration on the closed-form CDF.

Reproducibility: one integer seed is split with numpy's SeedSequence into two
independent PCG64 streams (vacuum block, signal block).  Each stream draws one
phase uniform (plus one dark-count uniform on the signal stream) and one
quantile uniform per sample, consumed in that order block by block: all phase
uniforms, then the dark-count uniforms, then the quantile uniforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DatasetFormatError, ValidationError
from .kvtext import format_kv, parse_kv
from .states import marginal_ppf

FORMAT_VERSION = 1
RNG_NAME = "numpy-pcg64"

SOURCE_VACUUM = "V"
SOURCE_FOCK = "F"

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class DetectorModel:
    """Affine detector response with an optional false-trigger rate."""

    scale: float = 1.0
    offset: float = 0.0
    dark_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.scale) and self.scale > 0.0):
            raise ValidationError(f"detector scale must be positive, got {self.scale}")
        if not np.isfinite(self.offset):
            raise ValidationError("detector offset must be finite")
        if not (0.0 <= self.dark_fraction < 1.0):
            raise ValidationError(
                f"dark_fraction must lie in [0, 1), got {self.dark_fraction}"
            )


@dataclass(frozen=True)
class RunSpec:
    """Complete description of one synthetic run."""

    eta_true: float
    n_vacuum: int
    n_fock: int
    detector: DetectorModel = field(default_factory=DetectorModel)
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.eta_true <= 1.0):
            raise ValidationError(f"eta_true must lie in [0, 1], got {self.eta_true}")
        for name in ("n_vacuum", "n_fock"):
            n = getattr(self, name)
            if not isinstance(n, (int, np.integer)) or n < 0:
                raise ValidationError(f"{name} must be a non-negative integer, got {n!r}")
        if self.n_vacuum == 0 and self.n_fock == 0:
            raise ValidationError("run must contain at least one sample")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed!r}")


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
    `size` (pass size=None to take the shape from the array).  Consumes
    exactly one uniform per sample from `rng`.
    """
    eta = np.asarray(eta, dtype=float)
    if size is None:
        if eta.ndim == 0:
            raise ValidationError("size=None requires an array of per-event efficiencies")
        size = eta.shape[0]
    if size < 0:
        raise ValidationError(f"size must be non-negative, got {size}")
    u = rng.random(int(size))
    return np.asarray(marginal_ppf(eta, u))


def generate_run(spec: RunSpec) -> HomodyneDataset:
    """Generate a full run from its spec; deterministic in spec.seed."""
    seq_vacuum, seq_fock = np.random.SeedSequence(spec.seed).spawn(2)
    det = spec.detector

    rng_v = np.random.Generator(np.random.PCG64(seq_vacuum))
    phase_v = _TWO_PI * rng_v.random(spec.n_vacuum)
    x_v = sample_quadrature(0.0, spec.n_vacuum, rng_v)

    rng_f = np.random.Generator(np.random.PCG64(seq_fock))
    phase_f = _TWO_PI * rng_f.random(spec.n_fock)
    if det.dark_fraction > 0.0:
        dark = rng_f.random(spec.n_fock) < det.dark_fraction
        eta_events = np.where(dark, 0.0, spec.eta_true)
    else:
        eta_events = np.full(spec.n_fock, spec.eta_true)
    x_f = sample_quadrature(eta_events, spec.n_fock, rng_f)

    source = np.concatenate([
        np.full(spec.n_vacuum, SOURCE_VACUUM, dtype="U1"),
        np.full(spec.n_fock, SOURCE_FOCK, dtype="U1"),
    ])
    phase = np.concatenate([phase_v, phase_f])
    raw = det.scale * np.concatenate([x_v, x_f]) + det.offset
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


def read_dataset(path) -> HomodyneDataset:
    """Read a dataset written by write_dataset, validating header and body."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"dataset is not UTF-8 text: {exc}") from exc
    header_lines: list[tuple[int, str]] = []
    body: list[str] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if line.startswith("#"):
            header_lines.append((lineno, line[1:]))
        elif line:
            body.append(line)
    # Unknown header keys are ignored.
    header = parse_kv(header_lines, _HEADER_TYPES, "header", required=_HEADER_TYPES)
    if header["format_version"] != FORMAT_VERSION:
        raise DatasetFormatError(
            f"unsupported format_version {header['format_version']}, expected {FORMAT_VERSION}"
        )

    try:
        rows = (np.loadtxt(body, dtype=_SAMPLE_DTYPE, comments=None, ndmin=1)
                if body else np.empty(0, dtype=_SAMPLE_DTYPE))
    except ValueError as exc:
        raise DatasetFormatError(
            f"expected sample lines 'source phase raw_value' with numeric fields: {exc}"
        ) from exc
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
