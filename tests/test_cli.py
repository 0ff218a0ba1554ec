import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from focktomo.cli import EXIT_NUMERICS, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from focktomo.pipeline import reconstruct_dataset
from focktomo.reconstruction import _abel_operator
from focktomo.report import build_report
from focktomo.simulator import RunSpec, generate_run, read_dataset, write_dataset
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
    # the body's hash names the data a path such as /dev/fd/63 does not
    body = path.read_bytes().split(b"# end_header\n", 1)[1]
    assert f"body_sha256={hashlib.sha256(body).hexdigest()}" in reports[1]


def test_body_sha256_is_the_hash_of_the_written_body(tmp_path):
    # whatever the raw values' byte order or memory layout
    ds = generate_run(RunSpec(eta_true=0.553, n_vacuum=2000, n_fock=2000, seed=3))
    path = tmp_path / "run.dat"
    write_dataset(ds, path)
    want = hashlib.sha256(path.read_bytes().split(b"# end_header\n", 1)[1]).hexdigest()
    summary = reconstruct_dataset(ds)
    for raw in (ds.raw_value, ds.raw_value.astype(">f8"), np.repeat(ds.raw_value, 2)[::2]):
        ds.raw_value = raw
        assert build_report(summary, ds).sections["dataset"]["body_sha256"] == want


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


@pytest.mark.parametrize("table", [
    "v 1e-200 0 visibility_squared\n",  # v^2 underflows to 0
    "a 1e-200 0 direct\nb 1e-200 0 direct\n",  # the product underflows to 0
    "u 0.5 1e308 direct\n",  # sigma / v overflows
])
def test_budget_float64_cannot_hold_is_validation_error(tmp_path, capsys, table):
    factors, out = tmp_path / "factors.txt", tmp_path / "budget.txt"
    factors.write_text(table)
    assert main(["budget", "--factors", str(factors), "-o", str(out)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err.startswith("error: budget needs") and captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()


def test_what_budget_writes_report_reads(tmp_path):
    # a sigma of 1e200 is finite: written, and read back by report
    recon = tmp_path / "report.json"
    recon.write_text(json.dumps({"report_version": 1,
                                 "efficiency": {"eta_hat": 0.5, "eta_stderr": 0.01}}))
    factors, out = tmp_path / "factors.txt", tmp_path / "budget.txt"
    factors.write_text("u 0.5 1e200 direct\n")
    assert main(["budget", "--factors", str(factors), "-o", str(out)]) == EXIT_OK
    assert "eta_uncertainty=1e+200\n" in out.read_text()
    assert main(["report", "--reconstruction", str(recon), "--budget", str(out),
                 "-o", str(tmp_path / "m")]) == EXIT_OK
    merged = json.loads((tmp_path / "m" / "merged_report.json").read_text())
    assert merged["budget"]["eta_uncertainty"] == 1e200


def test_report_agreement_tolerance_that_overflows_is_validation_error(tmp_path, capsys):
    # a sigma of 1.5e308 is finite, but twice it is not: no tolerance to write
    recon = tmp_path / "report.json"
    recon.write_text(json.dumps({"report_version": 1,
                                 "efficiency": {"eta_hat": 0.5, "eta_stderr": 0.01}}))
    budget_file = tmp_path / "budget.txt"
    budget_file.write_text("budget_format_version=1\neta_predicted=0.5\n"
                           "eta_uncertainty=1.5e308\nn_factors=1\n")
    code = main(["report", "--reconstruction", str(recon), "--budget", str(budget_file),
                 "-o", str(tmp_path / "m")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: agreement tolerance") and err.count("\n") == 1
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("efficiency,key", [
    ('{"eta_hat": true, "eta_stderr": "0.01"}', "eta_hat"),
    ('{"eta_hat": 0.5, "eta_stderr": "0.01"}', "eta_stderr"),
    ('{"eta_hat": 1%s, "eta_stderr": 0.01}' % ("0" * 400), "eta_hat"),  # no double holds it
    ('{"eta_stderr": 0.01}', "eta_hat"),
], ids=["bool", "str", "int_past_float64", "missing"])
def test_report_fit_must_be_json_numbers(tmp_path, capsys, efficiency, key):
    recon = tmp_path / "report.json"
    recon.write_text('{"report_version": 1, "efficiency": %s}' % efficiency)
    budget_file = tmp_path / "budget.txt"
    assert main(["budget", "-o", str(budget_file)]) == EXIT_OK
    capsys.readouterr()
    code = main(["report", "--reconstruction", str(recon),
                 "--budget", str(budget_file), "-o", str(tmp_path / "m")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and key in err
    assert not (tmp_path / "m").exists()


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


def _reconstruct_without_warnings(tmp_path, *flags):
    # Exit code of `focktomo reconstruct` on a small run; any warning fails.
    path = _simulate(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(["reconstruct", str(path), *flags, "-o", str(tmp_path / "o")])


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
    # simulate` writes it with every default.
    path = tmp_path_factory.mktemp("reference") / "run42.txt"
    assert main(["simulate", "-o", str(path)]) == EXIT_OK
    return path


@pytest.mark.parametrize("scale", ["1e-3", "0.05"])
def test_bandwidth_narrower_than_a_bin_is_validation_error(reference_run, tmp_path,
                                                           capsys, scale):
    # The rule's 0.0998 times the scale is below the 0.01 bin width: each
    # kernel would be a spike on the grid nodes, and W(0) nonsense.
    outdir = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["reconstruct", str(reference_run), "--bandwidth-scale", scale,
                     "-o", str(outdir)])
    assert code == EXIT_VALIDATION
    assert ("too small for the grid spacing 0.005 and the bin width 0.01"
            in capsys.readouterr().err)
    assert not outdir.exists()


@pytest.mark.parametrize("scale, share", [("50", "0.766"), ("1e300", "4.8e-299")])
def test_bandwidth_wider_than_the_grid_is_validation_error(reference_run, tmp_path,
                                                          capsys, scale, share):
    # The rule's 0.0998 times the scale spreads the kernels past [-6, 6]: the
    # grid holds too little of their sum for a renormalized remnant to mean
    # anything.
    outdir = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["reconstruct", str(reference_run), "--bandwidth-scale", scale,
                     "-o", str(outdir)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "too wide for the smoothing grid [-6, 6]" in err
    assert f"holds {share} of the kernel sum, below 0.999" in err
    assert not outdir.exists()


def test_cold_reconstruct_holds_the_raw_values_apart_from_the_operator(reference_run,
                                                                      tmp_path):
    # The raw values are released once the run is calibrated and digested, so
    # they are not held while M is built: a cold run's traced peak is 1.38
    # times M.nbytes.
    _abel_operator.cache_clear()
    tracemalloc.start()
    try:
        assert main(["reconstruct", str(reference_run), "-o", str(tmp_path / "o")]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * _abel_operator(6.0, 1201, 4.0, 401).nbytes


# report.json of the seed-42 round trip with every default.
_REFERENCE_REPORT = {
    "efficiency": {"eta_hat": 0.5625941632881729, "eta_stderr": 0.008065892482756205,
                   "objective": 12624.618780815292},
    "calibration": {"scale_hat": 1.002638970801738, "offset_hat": -0.0005086163680511723},
    "diagonals": {"rho_11": 0.5807048215710435, "sigma_11": 0.011554037616833926,
                  "rho_sum": 0.9840856067970885},
    "wigner": {"origin_reconstructed": -0.04014699026509442,
               "profile_normalization": 1.0000021046373433,
               "origin_model": -0.07969736396811171},
    "config": {"bandwidth": 0.09980960492801365},
}
_REFERENCE_CONFIG = {"fit_method": "mle", "bandwidth_scale": 1.0, "grid_max": 6.0,
                     "grid_points": 2401, "n_bins": 1200, "r_max": 4.0, "n_radii": 401,
                     "calibration_method": "moments", "config_hash": "08684463d3f7"}
# sha256 of the dataset body, the last line of [dataset].
_REFERENCE_BODY_SHA256 = "f79c789c1ad9a90144a36f7453eef770ce9afc5f03b683047252570c3c096ad5"
# sha256 of the histogram's count column as little-endian int64.
_REFERENCE_COUNTS_SHA256 = "a96dce32bdc58226de65b2684a7200cda49871dafa558946be7deaaf072a89c7"


@pytest.fixture(scope="module")
def reference_out(reference_run, tmp_path_factory):
    # `focktomo reconstruct` of the reference run with every default: its
    # output directory.
    outdir = tmp_path_factory.mktemp("reference_out")
    assert main(["reconstruct", str(reference_run), "-o", str(outdir)]) == EXIT_OK
    return outdir


def test_reference_round_trip_is_frozen(reference_out):
    outdir = reference_out
    report = json.loads((outdir / "report.json").read_text())
    for section, values in _REFERENCE_REPORT.items():
        for key, value in values.items():
            assert report[section][key] == pytest.approx(value, rel=1e-12, abs=0.0), key
    assert report["calibration"]["method"] == "moments"
    assert report["efficiency"]["method"] == "mle"
    assert sorted(report["calibration"]) == ["method", "n_used", "offset_hat", "scale_hat"]
    assert sorted(report["diagonals"]) == sorted([f"{k}_{n}{n}" for k in ("rho", "sigma")
                                                  for n in range(4)] + ["rho_sum"])
    config = dict(report["config"])
    del config["bandwidth"]
    assert config == _REFERENCE_CONFIG
    dataset_lines = (outdir / "report.txt").read_text().split("[dataset]\n")[1].split("\n\n")[0]
    assert dataset_lines.splitlines()[-1] == f"body_sha256={_REFERENCE_BODY_SHA256}"
    counts = np.loadtxt(outdir / "marginal_histogram.txt", usecols=2, dtype=np.int64)
    assert counts.size == 1200 and counts.sum() == 12000
    assert hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest() == _REFERENCE_COUNTS_SHA256


def test_readme_names_every_report_section_and_key(reference_out, tmp_path):
    # report.json's and the merged report's, [budget] and [agreement] included
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    budget = str(tmp_path / "budget.txt")
    assert main(["budget", "-o", budget]) == EXIT_OK
    assert main(["report", "--reconstruction", str(reference_out / "report.json"),
                 "--budget", budget, "-o", str(tmp_path)]) == EXIT_OK
    names = []  # each section as `[name]`, each key and top-level value as `name`
    for path in (reference_out / "report.json", tmp_path / "merged_report.json"):
        for name, body in json.loads(path.read_text()).items():
            names += [f"[{name}]", *body] if isinstance(body, dict) else [name]
    assert [name for name in names if f"`{name}`" not in readme] == []


def test_readme_library_example_is_the_reconstruct_command(reference_out):
    # The README's Python block runs, and its summary is the one `focktomo
    # reconstruct` reports for the same seed-42 run, number for number.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block, = re.findall(r"```python\n(.*?)```", readme, re.S)
    namespace: dict = {}
    exec(block, namespace)
    summary = namespace["summary"]
    report = json.loads((reference_out / "report.json").read_text())
    assert summary.efficiency.eta_hat == report["efficiency"]["eta_hat"]
    assert summary.diagonals[1].rho_nn == report["diagonals"]["rho_11"]
    assert summary.wigner_origin_reconstructed == report["wigner"]["origin_reconstructed"]
    assert summary.density.bandwidth == report["config"]["bandwidth"]


def test_degenerate_dataset_is_numerics_error(tmp_path, capsys):
    path = _simulate(tmp_path)
    ds = read_dataset(path)
    ds.raw_value[:] = 0.5
    write_dataset(ds, path)
    code = main(["reconstruct", str(path), "-o", str(tmp_path / "o")])
    assert code == EXIT_NUMERICS
    assert "vacuum block has zero variance" in capsys.readouterr().err


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


def test_a_vacuum_spread_that_underflows_is_named(tmp_path, capsys):
    # the values differ, but their squared deviations (about 1e-601) round to 0
    path = tmp_path / "r.dat"
    assert main(["simulate", "--eta", "1", "--n-vacuum", "5000", "--n-fock", "5000",
                 "--scale", "1e-300", "-o", str(path)]) == EXIT_OK
    vacuum = read_dataset(path).vacuum_values
    assert np.std(vacuum, ddof=1) == 0.0 and vacuum.min() < vacuum.max()
    _exits_4_and_writes_nothing(path, tmp_path, capsys, "vacuum block's spread underflows float64")


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


# Every setting: where its value shows (the dataset header line, or the
# line in the report's [config] section) and a flag value other than its
# default.
_SETTING_CASES = {
    "eta": ("# eta_true", "0.9"),
    "n_vacuum": ("# n_vacuum", "3000"),
    "n_fock": ("# n_fock", "500"),
    "seed": ("# seed", "8"),
    "scale": ("# scale", "1.5"),
    "offset": ("# offset", "0.2"),
    "dark_fraction": ("# dark_fraction", "0.2"),
    "bandwidth_scale": ("bandwidth_scale", "2.0"),
}


# The test keeps its name from when a settings file could also set these.
@pytest.mark.parametrize("key", list(_SETTING_CASES))
def test_env_config_defaults(tmp_path, key):
    # the flag's value replaces the default and shows where it is written
    shown_as, value = _SETTING_CASES[key]
    flag = "--" + key.replace("_", "-")
    simulate = shown_as.startswith("#")
    if simulate:
        counts = {"--n-vacuum": "5000", "--n-fock": "2000"}
        counts.pop(flag, None)
        base = ["simulate", *(arg for item in counts.items() for arg in item)]
    else:
        base = ["reconstruct", str(_simulate(tmp_path))]
    out = tmp_path / "out"
    assert main([*base, flag, value, "-o", str(out)]) == EXIT_OK
    written = out if simulate else out / "report.txt"
    # the dataset's header lines are text; its body is not
    assert f"{shown_as}={value}".encode() in written.read_bytes().split(b"\n")


# Values of the chain that are not a reconstruct flag.
_CHAIN_CONSTANTS = {"grid_max": "7.0", "grid_points": "2001", "fit_method": "hist"}


@pytest.mark.parametrize("key", list(_CHAIN_CONSTANTS))
def test_a_chain_constant_is_not_a_flag(tmp_path, key):
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        main(["reconstruct", str(tmp_path / "run.dat"), flag, _CHAIN_CONSTANTS[key],
              "-o", str(tmp_path / "o")])
    assert exc.value.code == EXIT_USAGE


def test_the_environment_changes_no_command(tmp_path, monkeypatch, capsys):
    # Earlier versions read a settings file named by this variable, so that
    # a missing or malformed one failed even `budget`, which takes no setting.
    variable = "FOCKTOMO_CONFIG"
    monkeypatch.delenv(variable, raising=False)
    default = tmp_path / "default.dat"
    argv = ["simulate", "--n-vacuum", "5000", "--n-fock", "2000"]
    assert main([*argv, "-o", str(default)]) == EXIT_OK
    malformed = tmp_path / "cfg.txt"
    malformed.write_text("seed=x\n")
    for name, path in (("missing", tmp_path / "nope.cfg"), ("malformed", malformed)):
        monkeypatch.setenv(variable, str(path))
        assert main(["budget"]) == EXIT_OK
        out = tmp_path / f"{name}.dat"
        assert main([*argv, "-o", str(out)]) == EXIT_OK
        assert out.read_bytes() == default.read_bytes()
    assert "error" not in capsys.readouterr().err


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

def test_report_integer_past_the_digit_limit_is_validation_error(tmp_path, capsys):
    # json.loads raises a plain ValueError, not JSONDecodeError, for an
    # integer longer than int's 4300-digit conversion limit
    recon = tmp_path / "report.json"
    recon.write_text('{"report_version": 1, "x": 1%s}' % ("0" * 5000))
    code = main(["report", "--reconstruction", str(recon), "-o", str(tmp_path / "m")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: cannot parse") and err.count("\n") == 1
    assert not (tmp_path / "m").exists()


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
print(*sorted(name for name in sys.modules
              if name.split(".")[0] == "focktomo" or name in ("numpy", "hashlib", "_hashlib")))
"""


def _footprint(*argv):
    # the focktomo modules, numpy and hashlib that a fresh python loads to
    # run `focktomo *argv`, or a bare `import focktomo` when argv is empty
    out = subprocess.run([sys.executable, "-c", _FOOTPRINT, *argv], env=_src_env(), check=True,
                         capture_output=True, text=True).stdout
    return set(out.splitlines()[-1].split())


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    assert _footprint() == {"focktomo"}
    data = tmp_path / "run.dat"
    simulate = _footprint("simulate", "--n-vacuum", "5000", "--n-fock", "2000", "-o", str(data))
    # numpy.random loads hashlib of its own accord
    assert simulate - {"hashlib", "_hashlib"} == {
        "focktomo", "focktomo.cli", "focktomo.errors", "focktomo.kvtext", "focktomo.simulator",
        "numpy"}
    reconstruct = _footprint("reconstruct", str(data), "-o", str(tmp_path / "out"))
    assert {"focktomo.reconstruction", "numpy", "hashlib"} <= reconstruct
    assert "focktomo.budget" not in reconstruct
    assert _footprint("budget", "-o", str(tmp_path / "budget.txt")) == {
        "focktomo", "focktomo.cli", "focktomo.errors", "focktomo.kvtext", "focktomo.budget"}
    report = ("report", "--reconstruction", str(tmp_path / "out" / "report.json"),
              "-o", str(tmp_path / "merged"))
    assert _footprint(*report) == {
        "focktomo", "focktomo.cli", "focktomo.errors", "focktomo.kvtext", "focktomo.report"}
    assert _footprint(*report, "--budget", str(tmp_path / "budget.txt")) == {
        "focktomo", "focktomo.cli", "focktomo.errors", "focktomo.kvtext", "focktomo.report",
        "focktomo.budget"}


_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None  # any numpy import now raises ImportError
from focktomo.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_help_usage_budget_and_report_run_without_numpy(tmp_path):
    recon = tmp_path / "report.json"
    recon.write_text(json.dumps({"report_version": 1,
                                 "efficiency": {"eta_hat": 0.55, "eta_stderr": 0.01}}))
    for argv, code in [(["--help"], EXIT_OK), (["simulate"], EXIT_USAGE),
                       (["budget", "-o", str(tmp_path / "budget.txt")], EXIT_OK),
                       (["report", "--reconstruction", str(recon), "-o", str(tmp_path)], EXIT_OK)]:
        result = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, *argv], env=_src_env(),
                                capture_output=True, text=True)
        assert result.returncode == code, (argv, result.stderr)
    assert "eta_predicted=" in (tmp_path / "budget.txt").read_text()
    assert "[efficiency]" in (tmp_path / "merged_report.txt").read_text()


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


def test_simulate_too_large_to_allocate_is_validation_error(tmp_path, capsys):
    # 10**15 events is 7 PiB of doubles, more than any address space reserves.
    out = tmp_path / "run.dat"
    code = main(["simulate", "--n-vacuum", "1000000000000000", "--n-fock", "10",
                 "-o", str(out)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("version", ["true", "1.0"])
def test_report_version_must_be_an_integer(tmp_path, capsys, version):
    # Both compare equal to 1, but neither is the integer version.
    recon = tmp_path / "report.json"
    recon.write_text('{"report_version": %s}' % version)
    code = main(["report", "--reconstruction", str(recon), "-o", str(tmp_path / "m")])
    assert code == EXIT_VALIDATION
    assert "report_version" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()
