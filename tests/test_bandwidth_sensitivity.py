"""scripts/bandwidth_sensitivity.py DATASET [--scales ...] on a small stored
run, run in-process through the bandwidth_sensitivity fixture."""

import pytest

from focktomo.simulator import RunSpec, generate_run, read_dataset, write_dataset


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    # a stored 20k + 2k run
    path = tmp_path_factory.mktemp("sweep") / "run.dat"
    write_dataset(generate_run(RunSpec(eta_true=0.553, n_vacuum=20_000, n_fock=2_000, seed=3)),
                  path)
    return path


def _rows(out):
    # the table rows, from the column header to the next blank line, as floats
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.split()[:1] == ["scale"]) + 1
    return [[float(v) for v in line.split()] for line in lines[start:lines.index("", start)]]


def test_sweep_prints_one_row_per_scale(run, bandwidth_sensitivity, capsys):
    assert bandwidth_sensitivity.main([str(run), "--scales", "0.5,1,2"]) == 0
    out = capsys.readouterr().out
    assert "n_vacuum=20000  n_fock=2000  seed=3" in out
    rows = _rows(out)
    assert [row[0] for row in rows] == [0.5, 1.0, 2.0]
    # the efficiency fit reads the samples, never the bandwidth
    assert len({row[4] for row in rows}) == 1
    assert "W(0) spread across scales" in out


def _v2_run(tmp_path, write_v2):
    return write_v2(generate_run(RunSpec(eta_true=0.5, n_vacuum=2000, n_fock=200, seed=8)),
                    tmp_path / "run_v2.dat")


@pytest.mark.parametrize("dataset,scales,message", [
    (lambda run, tmp_path, write_v2: run, "1,-1", "bandwidth_scale"),
    (lambda run, tmp_path, write_v2: tmp_path / "nope.dat", "1", "No such file"),
    (lambda run, tmp_path, write_v2: _v2_run(tmp_path, write_v2), "1", "convert.py"),
], ids=["negative-scale", "missing-file", "format-2"])
def test_invalid_input_exits_3_without_a_traceback(run, tmp_path, write_v2, bandwidth_sensitivity,
                                                   capsys, dataset, scales, message):
    path = dataset(run, tmp_path, write_v2)
    assert bandwidth_sensitivity.main([str(path), "--scales", scales]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err


@pytest.mark.parametrize("scales", ["x", ","])
def test_malformed_scales_are_a_usage_error(run, bandwidth_sensitivity, capsys, scales):
    with pytest.raises(SystemExit) as exc:
        bandwidth_sensitivity.main([str(run), "--scales", scales])
    assert exc.value.code == 2
    assert "--scales" in capsys.readouterr().err


def _far_last_value(run, tmp_path):
    # the stored run with its last raw value at 1e200: the analysis fails
    dataset = read_dataset(run)
    dataset.raw_value[-1] = 1e200
    write_dataset(dataset, tmp_path / "far.dat")
    return tmp_path / "far.dat"


@pytest.mark.parametrize("dataset,scales,code,message", [
    (lambda run, tmp_path: run, "1,0.01", 3, "too small"),
    (_far_last_value, "1", 4, "error:"),
], ids=["second-scale-too-small", "far-value"])
def test_a_failed_sweep_prints_no_table(run, tmp_path, bandwidth_sensitivity, capsys,
                                        dataset, scales, code, message):
    # every scale is reconstructed before the first line is printed
    assert bandwidth_sensitivity.main([str(dataset(run, tmp_path)), "--scales", scales]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err
