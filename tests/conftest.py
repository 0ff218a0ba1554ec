import contextlib
import importlib.util
import os
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from focktomo.kvtext import format_kv

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


@pytest.fixture(scope="session")
def convert_v1():
    """scripts/convert_v1.py, imported by path so that its checks run in
    this process."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "convert_v1.py"
    spec = importlib.util.spec_from_file_location("convert_v1", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_v1(ds, path):
    # A format_version=1 file: the nine header lines, then one f-string line
    # 'source phase raw_value' per sample, floats by repr.
    spec, det = ds.spec, ds.spec.detector
    header = format_kv({
        "format_version": 1, "rng": ds.rng_name, "seed": spec.seed,
        "eta_true": spec.eta_true, "scale": det.scale, "offset": det.offset,
        "dark_fraction": det.dark_fraction, "n_vacuum": spec.n_vacuum, "n_fock": spec.n_fock,
    }, prefix="# ")
    columns = (np.repeat(["V", "F"], [spec.n_vacuum, spec.n_fock]).tolist(),
               np.asarray(ds.phase, dtype=float).tolist(),
               np.asarray(ds.raw_value, dtype=float).tolist())
    body = "".join(f"{s} {p!r} {v!r}\n" for s, p, v in zip(*columns))
    path.write_bytes(("\n".join(header) + "\n" + body).encode())
    return path


@pytest.fixture(scope="session")
def write_v1():
    """A function that writes a HomodyneDataset to `path` as focktomo wrote
    it before the binary body, format_version=1 text, and returns `path`."""
    return _write_v1
