import os
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

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
    teardown."""
    writers = []

    def make(path):
        fifo = tmp_path / f"{Path(path).name}.fifo"
        os.mkfifo(fifo)
        data = Path(path).read_bytes()

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(data)

        writers.append(threading.Thread(target=feed, daemon=True))
        writers[-1].start()
        return fifo

    yield make
    for writer in writers:
        writer.join(timeout=30)
        assert not writer.is_alive(), "a FIFO was never read to the end"
