import contextlib
import importlib.util
import os
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from focktomo.kvtext import format_kv
from focktomo.simulator import sample_quadrature

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# Selected with --hypothesis-profile=ci: a fixed example sequence, so a CI
# failure reproduces, and five times the default number of examples.
settings.register_profile(
    "ci",
    settings.get_profile("default"),
    derandomize=True,
    max_examples=500,
)
settings.load_profile("default")


@pytest.fixture
def fifo_of(tmp_path):
    """A function that makes a FIFO under tmp_path and starts one thread
    feeding it the bytes of the file at `path`; the threads are joined at
    teardown.  A reader may stop early: the feeder then meets a broken pipe
    and ends."""
    writers = []

    def make(path):
        fifo = tmp_path / f"{Path(path).name}.fifo"
        os.mkfifo(fifo)
        data = Path(path).read_bytes()

        def feed():
            with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as fh:
                fh.write(data)

        writers.append(threading.Thread(target=feed, daemon=True))
        writers[-1].start()
        return fifo

    yield make
    for writer in writers:
        writer.join(timeout=30)
        assert not writer.is_alive(), "a FIFO was never read to the end"


def _script(name):
    # scripts/<name>.py, imported by path
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def convert():
    """scripts/convert.py, imported by path so that its checks run in this
    process."""
    return _script("convert")


@pytest.fixture(scope="session")
def bandwidth_sensitivity():
    """scripts/bandwidth_sensitivity.py, imported by path so that its sweep
    runs in this process."""
    return _script("bandwidth_sensitivity")


def _exits_3_and_writes_no_new(old, convert, capsys, message):
    fresh, kept = old.parent / "fresh.dat", old.parent / "kept.dat"
    kept.write_bytes(b"earlier contents")
    for new in (fresh, kept):
        assert convert.main([str(old), str(new)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and "Traceback" not in err
    assert not fresh.exists()
    assert kept.read_bytes() == b"earlier contents"


@pytest.fixture(scope="session")
def exits_3_and_writes_no_new():
    """A function that checks scripts/convert.py (the `convert` module)
    exits 3 on the file `old` with `message` on stderr, and leaves NEW as it
    was, whether NEW was absent or held earlier contents."""
    return _exits_3_and_writes_no_new


def _format2_columns(spec):
    # The phase and raw_value columns generate_run drew for `spec` in
    # format_version=2: per block, one PCG64 stream drew n phase uniforms
    # times 2 pi, then sample_quadrature's draws.
    det = spec.detector
    blocks = zip(np.random.SeedSequence(spec.seed).spawn(2),
                 (0.0, spec.eta_true * (1.0 - det.dark_fraction)),
                 (spec.n_vacuum, spec.n_fock))
    phase, x = [], []
    for seq, eta, n in blocks:
        rng = np.random.Generator(np.random.PCG64(seq))
        phase.append(2.0 * np.pi * rng.random(n))
        x.append(sample_quadrature(eta, n, rng))
    with np.errstate(over="ignore"):
        raw = det.scale * np.concatenate(x) + det.offset
    return np.concatenate(phase), raw


@pytest.fixture(scope="session")
def format2_columns():
    """A function that returns the (phase, raw_value) columns focktomo
    simulate stored for a RunSpec in format_version=2, drawn as it drew
    them."""
    return _format2_columns


def _old_header(ds, version):
    spec, det = ds.spec, ds.spec.detector
    return format_kv({
        "format_version": version, "rng": ds.rng_name, "seed": spec.seed,
        "eta_true": spec.eta_true, "scale": det.scale, "offset": det.offset,
        "dark_fraction": det.dark_fraction, "n_vacuum": spec.n_vacuum, "n_fock": spec.n_fock,
    }, prefix="# ")


def _write_v1(ds, path, phase=None):
    # A format_version=1 file: the nine header lines, then one f-string line
    # 'source phase raw_value' per sample, floats by repr.
    phase = _format2_columns(ds.spec)[0] if phase is None else phase
    columns = (np.repeat(["V", "F"], [ds.spec.n_vacuum, ds.spec.n_fock]).tolist(),
               np.asarray(phase, dtype=float).tolist(),
               np.asarray(ds.raw_value, dtype=float).tolist())
    body = "".join(f"{s} {p!r} {v!r}\n" for s, p, v in zip(*columns))
    path.write_bytes(("\n".join(_old_header(ds, 1)) + "\n" + body).encode())
    return path


def _write_v2(ds, path, phase=None):
    # A format_version=2 file: the nine header lines, the end line, then the
    # phases and the raw values as little-endian float64.
    phase = _format2_columns(ds.spec)[0] if phase is None else phase
    path.write_bytes("\n".join([*_old_header(ds, 2), "# end_header", ""]).encode()
                     + np.asarray(phase, dtype="<f8").tobytes()
                     + np.asarray(ds.raw_value, dtype="<f8").tobytes())
    return path


@pytest.fixture(scope="session")
def write_v1():
    """A function that writes a HomodyneDataset to `path` as focktomo wrote
    it before the binary body, format_version=1 text, and returns `path`.
    The phase column is `phase`, by default the one simulate drew for the
    dataset's spec (see format2_columns)."""
    return _write_v1


@pytest.fixture(scope="session")
def write_v2():
    """A function that writes a HomodyneDataset to `path` as focktomo wrote
    it in format_version=2, with a phase column as write_v1's, and returns
    `path`."""
    return _write_v2
