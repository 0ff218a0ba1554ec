import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from focktomo.cli import ENV_CONFIG, EXIT_NUMERICS, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from focktomo.simulator import read_dataset, write_dataset
from focktomo.states import wigner_radial


def _simulate(tmp_path, name="run.txt", extra=()):
    path = tmp_path / name
    code = main(["simulate", "--n-vacuum", "5000", "--n-fock", "2000",
                 "--seed", "5", "-o", str(path), *extra])
    assert code == EXIT_OK
    return path


def _strip_timestamp(text: str) -> str:
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("generated_at="))


def test_simulate_writes_dataset(tmp_path, capsys):
    path = _simulate(tmp_path, extra=("--eta", "0.7"))
    out = capsys.readouterr().out
    assert "7000 samples" in out
    ds = read_dataset(path)
    assert ds.spec.eta_true == 0.7
    assert ds.spec.n_vacuum == 5000
    assert ds.spec.seed == 5


def test_simulate_is_deterministic(tmp_path):
    a = _simulate(tmp_path, "a.txt")
    b = _simulate(tmp_path, "b.txt")
    assert a.read_bytes() == b.read_bytes()


def test_reconstruct_outputs(tmp_path):
    path = _simulate(tmp_path)
    outdir = tmp_path / "out"
    assert main(["reconstruct", str(path), "-o", str(outdir)]) == EXIT_OK
    for name in ("report.txt", "report.json", "wigner_profile.txt",
                 "marginal_histogram.txt"):
        assert (outdir / name).exists()
    report = json.loads((outdir / "report.json").read_text())
    assert report["report_version"] == 1
    assert 0.0 <= report["efficiency"]["eta_hat"] <= 1.0
    assert report["analysis"]["source"] == "fock_block"
    assert "generated_at" in report["provenance"]
    # the text twin carries the same top-level keys as sections
    text = (outdir / "report.txt").read_text()
    assert "[efficiency]" in text
    assert "eta_hat=" in text


def test_reconstruct_deterministic_up_to_timestamp(tmp_path):
    path = _simulate(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["reconstruct", str(path), "-o", str(out1)]) == EXIT_OK
    assert main(["reconstruct", str(path), "-o", str(out2)]) == EXIT_OK
    t1 = _strip_timestamp((out1 / "report.txt").read_text())
    t2 = _strip_timestamp((out2 / "report.txt").read_text())
    assert t1 == t2
    assert (out1 / "wigner_profile.txt").read_bytes() == (out2 / "wigner_profile.txt").read_bytes()
    assert (out1 / "marginal_histogram.txt").read_bytes() == (out2 / "marginal_histogram.txt").read_bytes()


def test_reconstruct_reads_a_pipe(tmp_path, fifo_of):
    # the report from a FIFO is the file's, but for the time and the path
    path = _simulate(tmp_path)
    reports = []
    for name, source in (("file", path), ("pipe", fifo_of(path))):
        assert main(["reconstruct", str(source), "-o", str(tmp_path / name)]) == EXIT_OK
        lines = (tmp_path / name / "report.txt").read_text().splitlines()
        reports.append([line for line in lines
                        if not line.startswith(("generated_at=", "path="))])
    assert reports[0] == reports[1]


def test_reconstruct_flags_change_output(tmp_path):
    path = _simulate(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["reconstruct", str(path), "-o", str(out1)]) == EXIT_OK
    assert main(["reconstruct", str(path), "--bandwidth-scale", "2.0",
                 "-o", str(out2)]) == EXIT_OK
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert r2["config"]["bandwidth"] == pytest.approx(2.0 * r1["config"]["bandwidth"], rel=1e-9)


def test_vacuum_only_reconstruct(tmp_path):
    path = tmp_path / "vac.txt"
    assert main(["simulate", "--n-vacuum", "20000", "--n-fock", "0",
                 "--seed", "3", "-o", str(path)]) == EXIT_OK
    outdir = tmp_path / "out"
    assert main(["reconstruct", str(path), "-o", str(outdir)]) == EXIT_OK
    report = json.loads((outdir / "report.json").read_text())
    assert report["analysis"]["source"] == "vacuum_control"
    assert report["efficiency"]["eta_hat"] == pytest.approx(0.0, abs=0.02)
    assert report["diagonals"]["rho_00"] == pytest.approx(1.0, abs=0.02)
    # the two summary lines are what they name, bit for bit
    diagonals = report["diagonals"]
    assert diagonals["rho_sum"] == sum(diagonals[f"rho_{n}{n}"] for n in range(4))
    assert report["wigner"]["origin_model"] == wigner_radial(report["efficiency"]["eta_hat"], 0.0)


def test_budget_stdout_and_file(tmp_path, capsys):
    out = tmp_path / "budget.txt"
    assert main(["budget", "-o", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert out.read_text() == printed
    values = dict(line.split("=", 1) for line in printed.splitlines() if "=" in line)
    assert float(values["eta_predicted"]) == pytest.approx(0.57722931, abs=1e-8)
    assert values["budget_format_version"] == "1"


def test_budget_custom_factors(tmp_path, capsys):
    factors = tmp_path / "factors.txt"
    factors.write_text("a 0.5 0 direct\nb 0.5 0 direct\n")
    assert main(["budget", "--factors", str(factors)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "eta_predicted=0.25" in printed


def test_report_merges_budget(tmp_path):
    path = _simulate(tmp_path)
    outdir = tmp_path / "out"
    assert main(["reconstruct", str(path), "-o", str(outdir)]) == EXIT_OK
    budget_file = tmp_path / "budget.txt"
    assert main(["budget", "-o", str(budget_file)]) == EXIT_OK
    merged_dir = tmp_path / "merged"
    assert main(["report", "--reconstruction", str(outdir / "report.json"),
                 "--budget", str(budget_file), "-o", str(merged_dir)]) == EXIT_OK
    merged = json.loads((merged_dir / "merged_report.json").read_text())
    assert "budget" in merged
    assert "agreement" in merged
    assert isinstance(merged["agreement"]["passed"], bool)
    text = (merged_dir / "merged_report.txt").read_text()
    assert "[agreement]" in text


def test_report_without_budget(tmp_path):
    path = _simulate(tmp_path)
    outdir = tmp_path / "out"
    assert main(["reconstruct", str(path), "-o", str(outdir)]) == EXIT_OK
    merged_dir = tmp_path / "merged"
    assert main(["report", "--reconstruction", str(outdir / "report.json"),
                 "-o", str(merged_dir)]) == EXIT_OK
    merged = json.loads((merged_dir / "merged_report.json").read_text())
    assert "budget" not in merged
    assert "agreement" not in merged


def test_report_rejects_version_mismatch(tmp_path, capsys):
    path = _simulate(tmp_path)
    outdir = tmp_path / "out"
    assert main(["reconstruct", str(path), "-o", str(outdir)]) == EXIT_OK
    doctored = json.loads((outdir / "report.json").read_text())
    doctored["report_version"] = 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doctored))
    code = main(["report", "--reconstruction", str(bad), "-o", str(tmp_path / "m")])
    assert code == EXIT_VALIDATION
    assert "report_version" in capsys.readouterr().err


def test_budget_version_mismatch(tmp_path, capsys):
    path = _simulate(tmp_path)
    outdir = tmp_path / "out"
    assert main(["reconstruct", str(path), "-o", str(outdir)]) == EXIT_OK
    budget_file = tmp_path / "budget.txt"
    assert main(["budget", "-o", str(budget_file)]) == EXIT_OK
    doctored = budget_file.read_text().replace("budget_format_version=1",
                                               "budget_format_version=9")
    budget_file.write_text(doctored)
    code = main(["report", "--reconstruction", str(outdir / "report.json"),
                 "--budget", str(budget_file), "-o", str(tmp_path / "m")])
    assert code == EXIT_VALIDATION
    assert "budget_format_version" in capsys.readouterr().err


def test_budget_unparseable_version_is_validation_error(tmp_path, capsys):
    recon = tmp_path / "report.json"
    recon.write_text(json.dumps({"report_version": 1}))
    budget_file = tmp_path / "budget.txt"
    budget_file.write_text("budget_format_version=x\neta_predicted=0.5\neta_uncertainty=0.01\n")
    code = main(["report", "--reconstruction", str(recon),
                 "--budget", str(budget_file), "-o", str(tmp_path / "m")])
    assert code == EXIT_VALIDATION
    assert "budget_format_version" in capsys.readouterr().err

def test_budget_with_nan_prediction_is_validation_error(tmp_path, capsys):
    recon = tmp_path / "report.json"
    recon.write_text(json.dumps({"report_version": 1,
                                 "efficiency": {"eta_hat": 0.5, "eta_stderr": 0.01}}))
    budget_file = tmp_path / "budget.txt"
    budget_file.write_text("budget_format_version=1\neta_predicted=nan\neta_uncertainty=-1\n")
    code = main(["report", "--reconstruction", str(recon),
                 "--budget", str(budget_file), "-o", str(tmp_path / "m")])
    assert code == EXIT_VALIDATION
    assert "eta_predicted" in capsys.readouterr().err
    assert not (tmp_path / "m" / "merged_report.json").exists()


def test_missing_dataset_is_validation_error(tmp_path, capsys):
    code = main(["reconstruct", str(tmp_path / "nope.txt"), "-o", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    assert "error" in capsys.readouterr().err


def test_corrupt_dataset_is_validation_error(tmp_path, capsys):
    path = _simulate(tmp_path)
    path.write_bytes(path.read_bytes().replace(b"# format_version=3\n", b"# format_version=99\n"))
    outdir = tmp_path / "o"
    code = main(["reconstruct", str(path), "-o", str(outdir)])
    assert code == EXIT_VALIDATION
    assert not outdir.exists()  # no partial output
    assert "format_version" in capsys.readouterr().err


def test_v1_dataset_exits_3_naming_the_converter(tmp_path, capsys, write_v1):
    path = write_v1(read_dataset(_simulate(tmp_path)), tmp_path / "run_v1.txt")
    outdir = tmp_path / "o"
    code = main(["reconstruct", str(path), "-o", str(outdir)])
    assert code == EXIT_VALIDATION
    assert not outdir.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and "convert.py" in err and "Traceback" not in err


def test_invalid_eta_is_validation_error(tmp_path, capsys):
    code = main(["simulate", "--eta", "1.5", "-o", str(tmp_path / "x.txt")])
    assert code == EXIT_VALIDATION
    assert "eta" in capsys.readouterr().err


def test_overflowing_detector_map_is_validation_error(tmp_path, capsys):
    # scale * X overflows to inf: no warning, and no file reconstruct cannot read
    path = tmp_path / "x.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", "--n-vacuum", "5000", "--n-fock", "2000",
                     "--scale", "1e308", "-o", str(path)])
    assert code == EXIT_VALIDATION
    assert "overflows" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("grid_max,message", [
    ("inf", "grid_max must be positive and finite"),
    ("nan", "grid_max must be positive and finite"),
    ("1e308", "bin range"),  # finite, but the bins' width 2 * grid_max overflows
])
def test_unusable_grid_max_is_validation_error(tmp_path, capsys, grid_max, message):
    path = _simulate(tmp_path)
    outdir = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["reconstruct", str(path), "--grid-max", grid_max, "-o", str(outdir)])
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not outdir.exists()


def _reconstruct_without_warnings(tmp_path, *flags):
    # Exit code of `focktomo reconstruct` on a small run; any warning fails.
    path = _simulate(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(["reconstruct", str(path), *flags, "-o", str(tmp_path / "o")])


@pytest.mark.parametrize("flags,code", [
    (("--grid-points", "601"), EXIT_OK),  # spacing 0.02, at the bound
    (("--grid-max", "12", "--grid-points", "1201"), EXIT_OK),  # spacing 0.02
    (("--grid-max", "6.03", "--grid-points", "601"), EXIT_VALIDATION),  # spacing 0.0201
])
def test_grid_spacing_at_the_inversion_bound(tmp_path, capsys, flags, code):
    assert _reconstruct_without_warnings(tmp_path, *flags) == code
    if code == EXIT_VALIDATION:
        assert "spacing 0.0201 too coarse" in capsys.readouterr().err


@pytest.mark.parametrize("grid_points", [601, 1201, 2001, 4801])
def test_the_bins_follow_the_grid(tmp_path, grid_points):
    # (grid_points - 1) / 2 bins over [-grid_max, grid_max], two steps each
    assert _reconstruct_without_warnings(tmp_path, "--grid-points", str(grid_points)) == EXIT_OK
    config = json.loads((tmp_path / "o" / "report.json").read_text())["config"]
    assert (config["grid_points"], config["n_bins"]) == (grid_points, (grid_points - 1) // 2)
    table = np.loadtxt(tmp_path / "o" / "marginal_histogram.txt")
    assert table.shape[0] == (grid_points - 1) // 2


def test_grid_too_coarse_to_invert_is_rejected_before_smoothing(tmp_path, capsys):
    # finite, with a bin width that fits a double, but far coarser than the
    # inversion allows; the bandwidth rule's moments would overflow on it
    code = _reconstruct_without_warnings(tmp_path, "--grid-max", "1e200")
    assert code == EXIT_VALIDATION
    assert "marginal grid spacing" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bandwidth_overflowing_the_kernel_normalisation_is_validation_error(tmp_path, capsys):
    code = _reconstruct_without_warnings(tmp_path, "--bandwidth-scale", "1e308")
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "bandwidth" in err and "too large" in err
    assert not (tmp_path / "o").exists()


def test_bandwidth_underflowing_every_kernel_term_is_validation_error(tmp_path, capsys):
    code = _reconstruct_without_warnings(tmp_path, "--bandwidth-scale", "1e-300")
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "bandwidth" in err and "too small for the grid spacing 0.005" in err
    assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    # The seed-42 reference run (200k vacuum + 12k signal) as `focktomo
    # simulate` writes it with every default and no config file.
    path = tmp_path_factory.mktemp("reference") / "run42.txt"
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(ENV_CONFIG, raising=False)
        assert main(["simulate", "-o", str(path)]) == EXIT_OK
    return path


@pytest.mark.parametrize("scale", ["1e-3", "0.05"])
def test_bandwidth_narrower_than_a_bin_is_validation_error(reference_run, tmp_path,
                                                           monkeypatch, capsys, scale):
    # The rule's 0.0998 times the scale is below the 0.01 bin width: each
    # kernel would be a spike on the grid nodes, and W(0) nonsense.
    monkeypatch.delenv(ENV_CONFIG, raising=False)
    outdir = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["reconstruct", str(reference_run), "--bandwidth-scale", scale,
                     "-o", str(outdir)])
    assert code == EXIT_VALIDATION
    assert ("too small for the grid spacing 0.005 and the bin width 0.01"
            in capsys.readouterr().err)
    assert not outdir.exists()


# report.json of the seed-42 round trip with every default.
_REFERENCE_REPORT = {
    "efficiency": {"eta_hat": 0.5625941632881729, "eta_stderr": 0.008065892482756205,
                   "objective": 12624.618780815292},
    "calibration": {"scale_hat": 1.002638970801738, "offset_hat": -0.0005086163680511723,
                    "fit_residual": 0.006080729749422906},
    "diagonals": {"rho_11": 0.5807048215710435, "sigma_11": 0.011554037616833926,
                  "rho_sum": 0.9840856067970885},
    "wigner": {"origin_reconstructed": -0.040146971249130026,
               "profile_normalization": 1.0000021054417183,
               "origin_model": -0.07969736396811171},
    "config": {"bandwidth": 0.09980960492801365},
}
_REFERENCE_CONFIG = {"fit_method": "mle", "bandwidth_scale": 1.0, "grid_max": 6.0,
                     "grid_points": 2401, "n_bins": 1200, "r_max": 4.0, "n_radii": 401,
                     "calibration_method": "moments", "config_hash": "08684463d3f7"}
# sha256 of the histogram's count column as little-endian int64.
_REFERENCE_COUNTS_SHA256 = "a96dce32bdc58226de65b2684a7200cda49871dafa558946be7deaaf072a89c7"


def test_reference_round_trip_is_frozen(reference_run, tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_CONFIG, raising=False)
    outdir = tmp_path / "out"
    assert main(["reconstruct", str(reference_run), "-o", str(outdir)]) == EXIT_OK
    report = json.loads((outdir / "report.json").read_text())
    for section, values in _REFERENCE_REPORT.items():
        for key, value in values.items():
            assert report[section][key] == pytest.approx(value, rel=1e-12, abs=0.0), key
    assert report["calibration"]["method"] == "moments"
    assert report["efficiency"]["method"] == "mle"
    config = dict(report["config"])
    del config["bandwidth"]
    assert config == _REFERENCE_CONFIG
    counts = np.loadtxt(outdir / "marginal_histogram.txt", usecols=2, dtype=np.int64)
    assert counts.size == 1200 and counts.sum() == 12000
    assert hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest() == _REFERENCE_COUNTS_SHA256


def test_degenerate_dataset_is_numerics_error(tmp_path, capsys):
    path = _simulate(tmp_path)
    ds = read_dataset(path)
    ds.raw_value[:] = 0.5
    write_dataset(ds, path)
    code = main(["reconstruct", str(path), "-o", str(tmp_path / "o")])
    assert code == EXIT_NUMERICS
    assert "variance" in capsys.readouterr().err


def _exits_4_and_writes_nothing(path, tmp_path, capsys, message):
    outdir = tmp_path / "o"
    capsys.readouterr()
    assert main(["reconstruct", str(path), "-o", str(outdir)]) == EXIT_NUMERICS
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not outdir.exists()


def test_a_vacuum_spread_that_overflows_is_numerics_error(tmp_path, capsys):
    path = tmp_path / "r.dat"
    assert main(["simulate", "--n-vacuum", "20000", "--n-fock", "2000", "--scale", "1e160",
                 "-o", str(path)]) == EXIT_OK
    _exits_4_and_writes_nothing(path, tmp_path, capsys, "overflows float64")


@pytest.mark.parametrize("far, message", [(1e200, "efficiency fit: 4 x^2 - 1 overflows"),
                                          (1e52, "rho_22 or its error is not finite")])
def test_a_signal_sample_that_overflows_is_numerics_error(tmp_path, capsys, far, message):
    # the estimates would be NaN, which report.json cannot hold
    path = tmp_path / "r.dat"
    assert main(["simulate", "--n-vacuum", "20000", "--n-fock", "2000", "-o", str(path)]) == EXIT_OK
    ds = read_dataset(path)
    ds.raw_value[-1] = far
    write_dataset(ds, path)
    _exits_4_and_writes_nothing(path, tmp_path, capsys, message)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE


# Every config key: where its value shows (the dataset header line, or the
# line in the report's [config] section), a config value and a flag value.
_SETTING_CASES = {
    "eta": ("# eta_true", "0.3", "0.9"),
    "n_vacuum": ("# n_vacuum", "4000", "3000"),
    "n_fock": ("# n_fock", "1000", "500"),
    "seed": ("# seed", "7", "8"),
    "scale": ("# scale", "2.5", "1.5"),
    "offset": ("# offset", "-0.4", "0.2"),
    "dark_fraction": ("# dark_fraction", "0.1", "0.2"),
    "bandwidth_scale": ("bandwidth_scale", "1.5", "2.0"),
    "fit_method": ("fit_method", "hist", "mle"),
    "grid_max": ("grid_max", "5.0", "7.0"),
    "grid_points": ("grid_points", "2001", "1601"),
}


@pytest.mark.parametrize("key", list(_SETTING_CASES))
def test_env_config_defaults(tmp_path, monkeypatch, key):
    # a config value replaces the default, and an explicit flag beats it
    shown_as, config_value, flag_value = _SETTING_CASES[key]
    simulate = shown_as.startswith("#")
    if simulate:
        counts = {"--n-vacuum": "5000", "--n-fock": "2000"}
        counts.pop("--" + key.replace("_", "-"), None)
        base = ["simulate", *(arg for item in counts.items() for arg in item)]
    else:
        base = ["reconstruct", str(_simulate(tmp_path))]
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"{key}={config_value}\n")
    monkeypatch.setenv("FOCKTOMO_CONFIG", str(cfg))
    flag = "--" + key.replace("_", "-")
    for name, extra, expected in (("a", [], config_value), ("b", [flag, flag_value], flag_value)):
        out = tmp_path / name
        assert main([*base, *extra, "-o", str(out)]) == EXIT_OK
        written = out if simulate else out / "report.txt"
        # the dataset's header lines are text; its body is not
        assert f"{shown_as}={expected}".encode() in written.read_bytes().split(b"\n")


def test_env_config_rejects_unknown_key(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("not_a_key=1\n")
    monkeypatch.setenv("FOCKTOMO_CONFIG", str(cfg))
    code = main(["simulate", "-o", str(tmp_path / "x.txt")])
    assert code == EXIT_VALIDATION
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("=0.6\n", "line 1: malformed config line"),
    ("eta=0.6\nseed=x\n", "line 2: unparseable config value for 'seed'"),
    ("eta\n", "line 1: malformed config line"),
])
def test_env_config_format_errors(tmp_path, monkeypatch, capsys, text, message):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text)
    monkeypatch.setenv("FOCKTOMO_CONFIG", str(cfg))
    assert main(["simulate", "-o", str(tmp_path / "x.txt")]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err


def test_env_config_missing_file_is_validation_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FOCKTOMO_CONFIG", str(tmp_path / "nope.cfg"))
    assert main(["budget"]) == EXIT_VALIDATION
    assert "nope.cfg" in capsys.readouterr().err


def test_default_run_parameters(tmp_path):
    # documented defaults: the reference run shape
    path = tmp_path / "run.txt"
    assert main(["simulate", "--n-vacuum", "1000", "--n-fock", "0",
                 "-o", str(path)]) == EXIT_OK
    ds = read_dataset(path)
    assert ds.spec.eta_true == 0.553
    assert ds.spec.seed == 42
    assert ds.spec.detector.scale == 1.0
    assert ds.spec.detector.dark_fraction == 0.0


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_report_non_finite_constant_is_validation_error(tmp_path, capsys, constant):
    # json.loads accepts these by default; they are not JSON and would be
    # copied into merged_report.json.
    recon = tmp_path / "report.json"
    recon.write_text('{"report_version": 1, "calibration": {"scale_hat": %s}}' % constant)
    code = main(["report", "--reconstruction", str(recon), "-o", str(tmp_path / "m")])
    assert code == EXIT_VALIDATION
    assert constant in capsys.readouterr().err
    assert not (tmp_path / "m" / "merged_report.json").exists()


def test_reconstruct_directory_is_validation_error(tmp_path, capsys):
    code = main(["reconstruct", str(tmp_path), "-o", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_report_directory_is_validation_error(tmp_path, capsys):
    code = main(["report", "--reconstruction", str(tmp_path), "-o", str(tmp_path / "m")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_binary_dataset_is_validation_error(tmp_path, capsys):
    path = tmp_path / "run.txt"
    path.write_bytes(bytes(range(256)) * 4)
    code = main(["reconstruct", str(path), "-o", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and "end_header" in err and "Traceback" not in err


def test_binary_factor_table_is_validation_error(tmp_path, capsys):
    factors = tmp_path / "factors.txt"
    factors.write_bytes(b"a 0.5 0 direct\n\xff\xfe\n")
    code = main(["budget", "--factors", str(factors)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and "decode" in err

def test_report_json_list_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "report.json"
    bad.write_text("[1, 2, 3]")
    code = main(["report", "--reconstruction", str(bad), "-o", str(tmp_path / "m")])
    assert code == EXIT_VALIDATION
    assert "JSON object" in capsys.readouterr().err


def _src_env():
    # the environment of a child python that imports this checkout's focktomo
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def test_import_leaves_optimize_and_interpolate_unloaded():
    # `focktomo simulate` needs numpy alone: the command line loads no scipy module
    code = ("import sys, focktomo.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


_FOOTPRINT = """
import sys
if sys.argv[1:]:
    from focktomo.cli import main
    assert main(sys.argv[1:]) == 0
else:
    import focktomo
print(*sorted(name for name in sys.modules if name.split(".")[0] == "focktomo"))
"""


def _footprint(*argv):
    # the focktomo modules a fresh python loads to run `focktomo *argv`, or
    # a bare `import focktomo` when argv is empty
    out = subprocess.run([sys.executable, "-c", _FOOTPRINT, *argv], env=_src_env(), check=True,
                         capture_output=True, text=True).stdout
    return set(out.splitlines()[-1].split())


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    assert _footprint() == {"focktomo"}
    data = tmp_path / "run.dat"
    assert _footprint("simulate", "--n-vacuum", "5000", "--n-fock", "2000", "-o", str(data)) == {
        "focktomo", "focktomo.cli", "focktomo.errors", "focktomo.kvtext", "focktomo.simulator"}
    reconstruct = _footprint("reconstruct", str(data), "-o", str(tmp_path / "out"))
    assert "focktomo.reconstruction" in reconstruct and "focktomo.budget" not in reconstruct
    budget = _footprint("budget")
    assert "focktomo.budget" in budget
    assert not budget & {"focktomo.calibration", "focktomo.pipeline", "focktomo.reconstruction"}
    assert _footprint("report", "--reconstruction", str(tmp_path / "out" / "report.json"),
                      "-o", str(tmp_path / "merged")) == {
        "focktomo", "focktomo.cli", "focktomo.errors", "focktomo.kvtext", "focktomo.report"}


# The package namespace, name for name and in order.
_PUBLIC = [
    "AgreementCheck", "BudgetResult", "CalibrationResult", "DatasetFormatError", "DetectorModel",
    "DiagonalEstimate", "EfficiencyFactor", "EfficiencyFit", "GridDensity", "HomodyneDataset",
    "MarginalHistogram", "NumericsError", "PreparedRun", "RadialWignerProfile",
    "ReconstructionConfig", "ReconstructionSummary", "RunSpec", "ValidationError", "abel_inverse",
    "bin_samples", "check_agreement", "combine", "default_factors", "fit_efficiency",
    "fit_vacuum", "generate_run", "load_factors", "marginal_cdf", "marginal_density",
    "marginal_ppf", "prepare_run", "read_dataset", "reconstruct_dataset", "rescale", "sample_diagonals", "sample_quadrature",
    "smooth_marginal", "wigner_radial", "write_dataset",
]


def test_lazy_namespace_matches_the_eager_one():
    import focktomo

    assert focktomo.__all__ == _PUBLIC
    assert set(_PUBLIC) <= set(dir(focktomo))
    star: dict = {}
    exec("from focktomo import *", star)
    for name in _PUBLIC:
        value = getattr(focktomo, name)
        # the very object of its defining submodule
        assert value.__module__.startswith("focktomo.")
        assert getattr(sys.modules[value.__module__], name) is value
        assert star[name] is value
    with pytest.raises(AttributeError, match="no_such_name"):
        focktomo.no_such_name
    assert not hasattr(focktomo, "cli_main")


def test_bare_import_reaches_a_submodule():
    code = ("import sys, focktomo; f = focktomo.reconstruction.bin_samples; "
            "print(f is sys.modules['focktomo.reconstruction'].bin_samples)")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "True"


_HISTOGRAM_CROSS_CHECK = """
import sys
from focktomo.pipeline import ReconstructionConfig, reconstruct_dataset
from focktomo.simulator import RunSpec, generate_run
ds = generate_run(RunSpec(eta_true=0.55, n_vacuum=20000, n_fock=2000, seed=42))
cal = reconstruct_dataset(ds, ReconstructionConfig(fit_method="hist",
                                                   calibration_method="histogram")).calibration
print(cal.method, cal.scale_hat > 0.0, sorted(name for name in sys.modules
                                               if name.startswith("scipy")))
"""


def test_histogram_cross_check_loads_no_scipy():
    # the histogram calibration and fit need numpy alone
    out = subprocess.run([sys.executable, "-c", _HISTOGRAM_CROSS_CHECK], env=_src_env(),
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "histogram True []"


_ROUND_TRIP = """
import sys
if sys.argv[3] == "blocked":
    sys.modules["scipy"] = None  # any scipy import now raises ImportError
from focktomo.cli import main
data, out = sys.argv[1], sys.argv[2]
codes = [main(["simulate", "--n-vacuum", "20000", "--n-fock", "2000", "-o", data]),
         main(["reconstruct", data, "-o", out])]
loaded = sorted(name for name, module in sys.modules.items()
                if name.startswith("scipy") and module is not None)
print(codes, loaded)
"""


@pytest.mark.parametrize("mode", ["blocked", "available"])
def test_simulate_and_reconstruct_load_no_scipy(tmp_path, mode):
    # the command line round trip needs numpy alone, with scipy importable or not
    data, outdir = tmp_path / "run.txt", tmp_path / "out"
    result = subprocess.run([sys.executable, "-c", _ROUND_TRIP, str(data), str(outdir), mode],
                            env=_src_env(), check=True, capture_output=True, text=True)
    assert result.stdout.strip().splitlines()[-1] == "[0, 0] []"
    assert read_dataset(data).n_samples == 22_000
    for name in ("report.txt", "report.json", "wigner_profile.txt", "marginal_histogram.txt"):
        assert (outdir / name).stat().st_size > 0
