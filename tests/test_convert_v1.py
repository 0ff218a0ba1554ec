"""scripts/convert.py OLD NEW on format_version=1 text files, run in-process
through the convert fixture.  Its version 1 parser's rules are tested in
test_simulator.py, beside the format_version=3 reader's; its format_version=2
reading in test_convert.py."""

import numpy as np
import pytest

from focktomo.errors import DatasetFormatError
from focktomo.simulator import RunSpec, generate_run, read_dataset


def _v1_file(tmp_path, write_v1, edit=lambda data: data):
    # a format_version=1 file of a 5 + 5 run, its bytes passed through `edit`
    path = write_v1(generate_run(RunSpec(eta_true=0.5, n_vacuum=5, n_fock=5, seed=8)),
                    tmp_path / "run.txt")
    path.write_bytes(edit(path.read_bytes()))
    return path


def _first_sample(data, field, value):
    # the first sample line with its field 0, 1 or 2 (source, phase, raw
    # value) replaced by `value`
    lines = data.split(b"\n")
    parts = lines[9].split()
    parts[field] = value
    lines[9] = b" ".join(parts)
    return b"\n".join(lines)


@pytest.mark.parametrize("edit,message", [
    (lambda data: _first_sample(data, 0, b"X"), "sample 1: source 'X'"),
    (lambda data: _first_sample(data, 1, b"6.9"), "phase outside"),
    (lambda data: _first_sample(data, 2, b"nan"), "non-finite"),
    (lambda data: _first_sample(data, 2, b"\xff"), "not UTF-8"),
    (lambda data: data.replace(b"# n_fock=5\n", b""), "missing keys: n_fock"),
    (lambda data: data.replace(b"# n_fock=5\n", b"# n_fock=-5\n"), "n_fock must be"),
    (lambda data: b"", "missing keys"),
], ids=["source", "phase", "non-finite", "non-utf8", "missing-key", "bad-count", "empty"])
def test_malformed_input_exits_3_and_writes_no_new(tmp_path, write_v1, convert, capsys,
                                                    exits_3_and_writes_no_new, edit, message):
    exits_3_and_writes_no_new(_v1_file(tmp_path, write_v1, edit), convert, capsys, message)


def test_missing_old_exits_3(tmp_path, convert, capsys):
    assert convert.main([str(tmp_path / "nope.txt"), str(tmp_path / "new.dat")]) == 3
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "new.dat").exists()


def test_v1_file_with_an_end_line_is_rejected(tmp_path, write_v1, convert):
    path = _v1_file(tmp_path, write_v1,
                    lambda data: data.replace(b"# n_fock=5\n", b"# n_fock=5\n# end_header\n"))
    with pytest.raises(DatasetFormatError, match="format_version=1 takes no '# end_header'"):
        convert.read_old(path)


def test_rng_tag_is_kept(tmp_path, write_v1, convert):
    # rng=numpy-pcg64 marks a file of the inverse-CDF sampler
    ds = generate_run(RunSpec(eta_true=0.5, n_vacuum=5, n_fock=5, seed=8))
    ds.rng_name = "numpy-pcg64"
    new = tmp_path / "new.dat"
    assert convert.main([str(write_v1(ds, tmp_path / "run.txt")), str(new)]) == 0
    back = read_dataset(new)
    assert back.rng_name == "numpy-pcg64" and back.spec == ds.spec
    assert np.array_equal(back.raw_value.view(np.uint64), ds.raw_value.view(np.uint64))
