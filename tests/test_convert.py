"""scripts/convert.py OLD NEW on format_version=2 and 3 files, run in-process
through the convert fixture.  Its format_version=1 text files are tested in
test_convert_v1.py."""

import numpy as np
import pytest

from focktomo.cli import main
from focktomo.simulator import (
    DetectorModel,
    HomodyneDataset,
    RunSpec,
    generate_run,
    read_dataset,
    write_dataset,
)


def _v2_file(tmp_path, write_v2, edit=lambda data: data):
    # a format_version=2 file of a 5 + 5 run, its bytes passed through `edit`
    path = write_v2(generate_run(RunSpec(eta_true=0.5, n_vacuum=5, n_fock=5, seed=8)),
                    tmp_path / "run_v2.dat")
    path.write_bytes(edit(path.read_bytes()))
    return path


def _v2_float(data, index, value):
    # body float `index` (10 phases, then 10 raw values) set to `value`
    at = len(data) - 160 + 8 * index
    return data[:at] + np.array(value, dtype="<f8").tobytes() + data[at + 8:]


@pytest.mark.parametrize("edit,message", [
    (lambda data: data[:-1], "holds 159 bytes, expected 16 * (n_vacuum + n_fock) = 160"),
    (lambda data: data + b"\0", "holds 161 bytes, expected 16 * (n_vacuum + n_fock) = 160"),
    (lambda data: _v2_float(data, 2, 7.0), "phase outside"),
    (lambda data: _v2_float(data, 4, np.nan), "phase outside"),
    (lambda data: _v2_float(data, 13, np.inf), "non-finite"),
    (lambda data: data.replace(b"# end_header\n", b""), "format_version=2 takes an '# end"),
], ids=["short", "long", "phase", "nan-phase", "non-finite", "no-end-line"])
def test_malformed_v2_input_exits_3_and_writes_no_new(tmp_path, write_v2, convert, capsys,
                                                       exits_3_and_writes_no_new, edit, message):
    exits_3_and_writes_no_new(_v2_file(tmp_path, write_v2, edit), convert, capsys, message)


def test_v3_file_is_not_converted(tmp_path, convert, capsys):
    old = tmp_path / "run.dat"
    write_dataset(generate_run(RunSpec(eta_true=0.5, n_vacuum=5, n_fock=5, seed=8)), old)
    assert convert.main([str(old), str(tmp_path / "new.dat")]) == 3
    assert "unsupported format_version 3, expected 1 or 2" in capsys.readouterr().err
    assert not (tmp_path / "new.dat").exists()


def test_v2_mixture_file_converts_to_what_simulate_writes(tmp_path, write_v2, convert,
                                                          format2_columns, monkeypatch):
    # the format_version=2 file is drawn as simulate drew it then, and its
    # header is the one simulate writes for these settings
    monkeypatch.delenv("FOCKTOMO_CONFIG", raising=False)
    settings = {"eta": 0.8, "n_vacuum": 3000, "n_fock": 700, "seed": 5, "scale": 1.7,
                "offset": 0.3, "dark_fraction": 0.02}
    simulated = tmp_path / "simulated.dat"
    argv = [f"--{key.replace('_', '-')}={value}" for key, value in settings.items()]
    assert main(["simulate", *argv, "-o", str(simulated)]) == 0
    spec = RunSpec(eta_true=0.8, n_vacuum=3000, n_fock=700, seed=5,
                   detector=DetectorModel(scale=1.7, offset=0.3, dark_fraction=0.02))
    phase, raw = format2_columns(spec)
    old = write_v2(HomodyneDataset(spec=spec, raw_value=raw), tmp_path / "run_v2.dat", phase)
    new = tmp_path / "converted.dat"
    assert convert.main([str(old), str(new)]) == 0
    assert new.read_bytes() == simulated.read_bytes()


def test_v2_file_exits_3_in_reconstruct_naming_the_converter(tmp_path, write_v2, capsys,
                                                             monkeypatch):
    monkeypatch.delenv("FOCKTOMO_CONFIG", raising=False)
    old = write_v2(generate_run(RunSpec(eta_true=0.5, n_vacuum=2000, n_fock=200, seed=8)),
                   tmp_path / "run_v2.dat")
    outdir = tmp_path / "o"
    assert main(["reconstruct", str(old), "-o", str(outdir)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "scripts/convert.py" in err and "Traceback" not in err
    assert not outdir.exists()
