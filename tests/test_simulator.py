import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from focktomo import simulator
from focktomo.errors import DatasetFormatError, ValidationError
from focktomo.pipeline import prepare_run
from focktomo.report import build_report
from focktomo.simulator import (
    DetectorModel,
    HomodyneDataset,
    RunSpec,
    generate_run,
    read_dataset,
    sample_quadrature,
    write_dataset,
)
from focktomo.states import marginal_cdf


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def test_generation_is_deterministic():
    spec = RunSpec(eta_true=0.6, n_vacuum=2000, n_fock=1500, seed=123)
    a = generate_run(spec)
    b = generate_run(spec)
    assert np.array_equal(a.raw_value, b.raw_value)


def test_different_seeds_differ():
    a = generate_run(RunSpec(eta_true=0.6, n_vacuum=1000, n_fock=0, seed=1))
    b = generate_run(RunSpec(eta_true=0.6, n_vacuum=1000, n_fock=0, seed=2))
    assert not np.array_equal(a.raw_value, b.raw_value)


def test_written_files_are_byte_identical(tmp_path):
    spec = RunSpec(eta_true=0.5, n_vacuum=1200, n_fock=800, seed=5)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    write_dataset(generate_run(spec), p1)
    write_dataset(generate_run(spec), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_vacuum_moments():
    n = 100_000
    x = sample_quadrature(0.0, n, _rng(11))
    se_mean = 0.5 / np.sqrt(n)
    assert abs(np.mean(x)) < 5.0 * se_mean
    se_std = 0.5 / np.sqrt(2.0 * n)
    assert abs(np.std(x, ddof=1) - 0.5) < 5.0 * se_std


@pytest.mark.parametrize("eta", [0.3, 0.7, 1.0])
def test_mixture_second_moment(eta):
    n = 100_000
    x = sample_quadrature(eta, n, _rng(17))
    m2_true = (1.0 + 2.0 * eta) / 4.0
    m4_true = 3.0 * (1.0 + 4.0 * eta) / 16.0
    se = np.sqrt((m4_true - m2_true ** 2) / n)
    assert abs(np.mean(x * x) - m2_true) < 5.0 * se


@pytest.mark.parametrize("eta", [0.0, 0.553])
def test_kolmogorov_smirnov_against_analytic_cdf(eta):
    n = 200_000
    x = sample_quadrature(eta, n, _rng(23))
    stat = stats.kstest(x, lambda q: marginal_cdf(eta, q)).statistic
    assert stat < 1.628 / np.sqrt(n)  # 1% critical value


def test_affine_covariance():
    det = DetectorModel(scale=2.3, offset=-1.7)
    spec_raw = RunSpec(eta_true=0.553, n_vacuum=0, n_fock=50_000, detector=det, seed=99)
    spec_unit = RunSpec(eta_true=0.553, n_vacuum=0, n_fock=50_000, seed=99)
    raw = generate_run(spec_raw).fock_values
    unit = generate_run(spec_unit).fock_values
    recovered = (raw - det.offset) / det.scale
    assert np.allclose(recovered, unit, atol=1e-12)
    stat = stats.kstest(recovered, lambda q: marginal_cdf(0.553, q)).statistic
    assert stat < 1.628 / np.sqrt(recovered.size)


def test_dark_fraction_lowers_effective_efficiency():
    # vacuum admixture at rate d is equivalent to efficiency eta * (1 - d)
    eta, d, n = 0.8, 0.25, 200_000
    det = DetectorModel(dark_fraction=d)
    ds = generate_run(RunSpec(eta_true=eta, n_vacuum=0, n_fock=n, detector=det, seed=41))
    x = ds.fock_values
    eta_eff = eta * (1.0 - d)
    m2_true = (1.0 + 2.0 * eta_eff) / 4.0
    m4_true = 3.0 * (1.0 + 4.0 * eta_eff) / 16.0
    se = np.sqrt((m4_true - m2_true ** 2) / n)
    assert abs(np.mean(x * x) - m2_true) < 5.0 * se


def test_sample_quadrature_per_event_eta():
    with pytest.raises(ValidationError, match="eta must be a scalar"):
        sample_quadrature(np.array([0.0, 0.5, 1.0, 0.25]), 4, _rng(2))
    with pytest.raises(ValidationError):
        sample_quadrature(0.5, -1, _rng(2))


@pytest.mark.parametrize("bad", [1.5, -0.1, np.nan, np.inf])
def test_sample_quadrature_rejects_eta_outside_unit_interval(bad):
    with pytest.raises(ValidationError, match="eta"):
        sample_quadrature(bad, 10, _rng(2))


def test_empty_blocks_are_allowed():
    ds = generate_run(RunSpec(eta_true=0.5, n_vacuum=100, n_fock=0, seed=1))
    assert ds.fock_values.size == 0
    ds = generate_run(RunSpec(eta_true=0.5, n_vacuum=0, n_fock=100, seed=1))
    assert ds.vacuum_values.size == 0


def test_blocks_are_views_of_raw_value():
    # rows [0, n_vacuum) are the vacuum block, the rest the signal block
    ds = generate_run(RunSpec(eta_true=0.5, n_vacuum=7, n_fock=4, seed=1))
    for block, rows in ((ds.vacuum_values, slice(0, 7)), (ds.fock_values, slice(7, 11))):
        assert block.base is ds.raw_value
        assert np.array_equal(block, ds.raw_value[rows])


def test_detector_validation():
    with pytest.raises(ValidationError):
        DetectorModel(scale=0.0)
    with pytest.raises(ValidationError):
        DetectorModel(scale=-1.0)
    with pytest.raises(ValidationError):
        DetectorModel(dark_fraction=1.0)
    with pytest.raises(ValidationError):
        DetectorModel(dark_fraction=-0.1)
    with pytest.raises(ValidationError):
        DetectorModel(offset=np.inf)


def test_run_spec_validation():
    with pytest.raises(ValidationError):
        RunSpec(eta_true=1.2, n_vacuum=10, n_fock=10)
    with pytest.raises(ValidationError):
        RunSpec(eta_true=0.5, n_vacuum=-1, n_fock=10)
    with pytest.raises(ValidationError):
        RunSpec(eta_true=0.5, n_vacuum=0, n_fock=0)
    with pytest.raises(ValidationError):
        RunSpec(eta_true=0.5, n_vacuum=10, n_fock=10, seed=-1)
    # a bool is not a count: seed=True would be written as 'seed=true'
    for name in ("n_vacuum", "n_fock", "seed"):
        for flag in (True, False):
            with pytest.raises(ValidationError, match=name):
                RunSpec(**{"eta_true": 0.5, "n_vacuum": 2000, "n_fock": 200, name: flag})


def test_roundtrip(tmp_path):
    det = DetectorModel(scale=1.5, offset=0.3, dark_fraction=0.02)
    spec = RunSpec(eta_true=0.553, n_vacuum=50, n_fock=40, detector=det, seed=77)
    ds = generate_run(spec)
    path = tmp_path / "run.txt"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert back.spec == spec
    assert back.rng_name == ds.rng_name
    assert np.array_equal(back.raw_value, ds.raw_value)


def test_roundtrip_of_numpy_scalar_spec(tmp_path):
    # numpy scalars must be written as plain numbers, not as np.float64(...)
    det = DetectorModel(scale=np.float64(1.25), offset=np.float64(-0.1),
                        dark_fraction=np.float64(0.02))
    spec = RunSpec(eta_true=np.float64(0.553), n_vacuum=np.int64(30), n_fock=np.int64(20),
                   detector=det, seed=np.int64(9))
    path = tmp_path / "run.txt"
    write_dataset(generate_run(spec), path)
    assert read_dataset(path).spec == spec
    assert b"# eta_true=0.553\n" in path.read_bytes()


@pytest.mark.parametrize("spec", [
    RunSpec(0.553, np.int64(20_000), np.int64(2_000), seed=np.int64(7)),
    RunSpec(np.float32(0.553), 20_000, 2_000, seed=7),
    RunSpec(0.553, 20_000, 2_000, detector=DetectorModel(scale=np.float32(1.25)), seed=7),
])
def test_numpy_scalar_spec_is_kept_as_python_numbers(spec):
    # A run spec keeps the checked Python numbers, so its run's report is
    # written as JSON whatever scalar types it was given.
    numbers = [spec.eta_true, spec.n_vacuum, spec.n_fock, spec.seed, spec.detector.scale,
               spec.detector.offset, spec.detector.dark_fraction]
    assert [type(v) for v in numbers] == [float, int, int, int, float, float, float]
    ds = generate_run(spec)
    report = json.loads(build_report(prepare_run(ds).reconstruct(), ds).to_json())
    assert report["dataset"]["n_vacuum"] == 20_000


def test_an_int_efficiency_reads_back_as_written(tmp_path):
    spec = RunSpec(eta_true=1, n_vacuum=30, n_fock=20, seed=9)
    assert type(spec.eta_true) is float
    path = tmp_path / "run.dat"
    write_dataset(generate_run(spec), path)
    assert b"# eta_true=1.0\n" in path.read_bytes()
    assert read_dataset(path).spec == spec


def _write_and_edit(tmp_path, edit):
    # a format_version=3 file of a 5 + 5 run whose header lines, the end line
    # last, are edited; its body is kept
    path = tmp_path / "run.dat"
    write_dataset(generate_run(RunSpec(eta_true=0.5, n_vacuum=5, n_fock=5, seed=8)), path)
    header, end, body = path.read_bytes().partition(b"# end_header\n")
    lines = (header + end).decode().splitlines()
    edit(lines)
    path.write_bytes(("\n".join(lines) + "\n").encode() + body)
    return path


def _write_and_set_float(tmp_path, index, value):
    # the same file with body float `index` (of its 10 raw values) set to
    # `value`
    path = _write_and_edit(tmp_path, lambda ls: None)
    data = bytearray(path.read_bytes())
    at = len(data) - 80 + 8 * index
    data[at:at + 8] = np.array(value, dtype="<f8").tobytes()
    path.write_bytes(data)
    return path


def test_read_rejects_unsupported_version(tmp_path):
    # the two earlier versions name their converter
    for version, hint in ((1, "; a version 1 file converts with scripts/convert.py OLD NEW"),
                          (2, "; a version 2 file converts with scripts/convert.py OLD NEW"),
                          (4, "")):
        path = _write_and_edit(tmp_path, lambda ls: ls.__setitem__(0, f"# format_version={version}"))
        message = f"unsupported format_version {version}, expected 3{hint}"
        with pytest.raises(DatasetFormatError, match=f"^{re.escape(message)}$"):
            read_dataset(path)


def test_read_rejects_missing_header(tmp_path):
    path = _write_and_edit(tmp_path, lambda ls: ls.__delitem__(2))  # seed line
    with pytest.raises(DatasetFormatError, match="missing"):
        read_dataset(path)


def test_read_rejects_non_finite(tmp_path):
    with pytest.raises(DatasetFormatError, match="non-finite"):
        read_dataset(_write_and_set_float(tmp_path, 2, np.nan))


def test_read_rejects_unparseable_number(tmp_path):
    path = _write_and_edit(tmp_path, lambda ls: ls.__setitem__(3, "# eta_true=abc"))
    with pytest.raises(DatasetFormatError, match="line 4: unparseable header value for 'eta_true'"):
        read_dataset(path)


def test_read_rejects_malformed_header_line(tmp_path):
    path = _write_and_edit(tmp_path, lambda ls: ls.insert(3, "# no equals sign"))
    with pytest.raises(DatasetFormatError, match="malformed header"):
        read_dataset(path)


def test_read_rejects_empty_header_key(tmp_path):
    path = _write_and_edit(tmp_path, lambda ls: ls.insert(3, "# =5"))
    with pytest.raises(DatasetFormatError, match="line 4: malformed header"):
        read_dataset(path)


def test_read_ignores_unknown_header_key(tmp_path):
    path = _write_and_edit(tmp_path, lambda ls: ls.insert(3, "# operator=someone"))
    assert read_dataset(path).spec.seed == 8


def test_read_header_block_may_hold_blank_lines(tmp_path):
    def edit(ls):
        ls.insert(0, "")
        ls.insert(4, "   ")
        ls.insert(8, "# =5")  # line 9 of the file
    path = _write_and_edit(tmp_path, edit)
    with pytest.raises(DatasetFormatError, match="line 9: malformed header"):
        read_dataset(path)
    path = _write_and_edit(tmp_path, lambda ls: (ls.insert(0, ""), ls.insert(4, "  \t")))
    assert read_dataset(path).n_samples == 10


def test_read_rejects_non_utf8_bytes(tmp_path):
    path = _write_and_edit(tmp_path, lambda ls: ls.__setitem__(1, "# rng=?"))
    path.write_bytes(path.read_bytes().replace(b"# rng=?", b"# rng=\xff\xfe\x00\x81"))
    with pytest.raises(DatasetFormatError, match="line 2: header is not UTF-8 text"):
        read_dataset(path)


# Format versions 1 (text) and 2 (phases and raw values) are read by
# scripts/convert.py (the convert fixture), not by read_dataset.

@pytest.mark.parametrize("piped", [False, True])
def test_read_names_the_converter_for_a_v1_file(tmp_path, fifo_of, write_v1, piped):
    # a file below PIPE_BUF bytes enters the pipe in one write, so the reader
    # may stop at the first sample line without breaking the pipe
    ds = generate_run(RunSpec(eta_true=0.5, n_vacuum=5, n_fock=5, seed=8))
    path = write_v1(ds, tmp_path / "run.txt")
    with pytest.raises(DatasetFormatError, match="no '# end_header' line; .*convert.py OLD NEW"):
        read_dataset(fifo_of(path) if piped else path)


def _v1_and_edit(tmp_path, write_v1, edit):
    # a format_version=1 file of a 5 + 5 run, with its text lines edited
    ds = generate_run(RunSpec(eta_true=0.5, n_vacuum=5, n_fock=5, seed=8))
    path = write_v1(ds, tmp_path / "run.txt")
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    return path


def test_read_rejects_bad_source(tmp_path, write_v1, convert):
    def edit(ls):
        parts = ls[9].split()
        ls[9] = "X " + " ".join(parts[1:])
    path = _v1_and_edit(tmp_path, write_v1, edit)
    with pytest.raises(DatasetFormatError, match="sample 1: source 'X', expected 'V'"):
        convert.read_old(path)


def test_read_rejects_malformed_line(tmp_path, write_v1, convert):
    path = _v1_and_edit(tmp_path, write_v1, lambda ls: ls.__setitem__(9, "V 0.5"))
    with pytest.raises(DatasetFormatError, match="sample lines"):
        convert.read_old(path)


def test_read_rejects_count_mismatch(tmp_path, write_v1, convert):
    # the sixth sample is then the first that is not read as its block says
    path = _v1_and_edit(tmp_path, write_v1, lambda ls: ls.__setitem__(7, "# n_vacuum=6"))
    with pytest.raises(DatasetFormatError, match="sample 6: source 'F', expected 'V'; "
                       "the source column must read n_vacuum=6 times 'V', then n_fock=5"):
        convert.read_old(path)


@pytest.mark.parametrize("edit,message", [
    (lambda ls: ls.pop(), "sample 10: source none, expected 'F'"),
    (lambda ls: ls.append(ls[-1]), "sample 11: source 'F', expected none"),
])
def test_read_rejects_missing_or_extra_sample(tmp_path, write_v1, convert, edit, message):
    with pytest.raises(DatasetFormatError, match=message):
        convert.read_old(_v1_and_edit(tmp_path, write_v1, edit))


def test_read_rejects_two_letter_source(tmp_path, write_v1, convert):
    # "VX" must not be truncated to the valid token "V"
    def edit(ls):
        parts = ls[9].split()
        ls[9] = "VX " + " ".join(parts[1:])
    path = _v1_and_edit(tmp_path, write_v1, edit)
    with pytest.raises(DatasetFormatError, match="sample 1: source 'VX', expected 'V'"):
        convert.read_old(path)


def test_read_rejects_extra_field(tmp_path, write_v1, convert):
    path = _v1_and_edit(tmp_path, write_v1, lambda ls: ls.__setitem__(9, ls[9] + " 1.0"))
    with pytest.raises(DatasetFormatError, match="sample lines"):
        convert.read_old(path)


def test_read_rejects_header_line_after_samples(tmp_path, write_v1, convert):
    # the header is the leading block of '#' lines; later '#' lines are samples
    path = _v1_and_edit(tmp_path, write_v1, lambda ls: ls.insert(12, "# operator=someone"))
    with pytest.raises(DatasetFormatError, match="sample lines"):
        convert.read_old(path)


def test_read_skips_blank_lines_and_surrounding_whitespace(tmp_path, write_v1, convert):
    def edit(ls):
        ls[9] = "  \t" + ls[9] + "   "
        ls.insert(10, "")
        ls.insert(11, "   ")
    path = _v1_and_edit(tmp_path, write_v1, edit)
    assert convert.read_old(path).n_samples == 10


def test_sources_out_of_block_order_are_rejected(tmp_path, write_v1, convert):
    # a version 1 file whose samples 4 (a V) and 7 (an F) swapped sources
    def edit(ls):
        ls[12], ls[15] = "F" + ls[12][1:], "V" + ls[15][1:]
    with pytest.raises(DatasetFormatError, match="sample 4: source 'F', expected 'V'"):
        convert.read_old(_v1_and_edit(tmp_path, write_v1, edit))


def test_written_bytes_are_frozen(tmp_path):
    # the header, the end line, then the raw values as little-endian float64
    spec = RunSpec(eta_true=0.553, n_vacuum=2, n_fock=1, seed=7,
                   detector=DetectorModel(scale=1.5, offset=-0.25, dark_fraction=0.1))
    ds = HomodyneDataset(spec=spec, raw_value=np.array([-0.0, 1e-300, -123456.789]))
    path = tmp_path / "run.dat"
    write_dataset(ds, path)
    assert path.read_bytes() == (
        b"# format_version=3\n# rng=numpy-pcg64-mixture\n# seed=7\n# eta_true=0.553\n"
        b"# scale=1.5\n# offset=-0.25\n# dark_fraction=0.1\n# n_vacuum=2\n# n_fock=1\n"
        b"# end_header\n" + bytes.fromhex(
            "0000000000000080" "59f3f8c21f6ea501" "c976be9f0c24fec0")
    )


def _raw_column_run(raw):
    # vacuum samples holding `raw`
    raw = np.asarray(raw, dtype=float)
    return HomodyneDataset(spec=RunSpec(eta_true=0.5, n_vacuum=raw.size, n_fock=0),
                           raw_value=raw)


def _assert_reads_as_per_row_reference(ds, directory, write_v1, convert, phase=None):
    # the written file, and the per-row v1 file (with phases `phase`) after
    # scripts/convert.py, both read back as `ds`, bit for bit (so -0.0 stays
    # -0.0)
    written, converted = directory / "run.dat", directory / "converted.dat"
    write_dataset(ds, written)
    old = write_v1(ds, directory / "run.txt", phase)
    assert convert.main([str(old), str(converted)]) == 0
    for path in (written, converted):
        assert np.array_equal(read_dataset(path).raw_value.view(np.uint64),
                              np.asarray(ds.raw_value, dtype=float).view(np.uint64))


def test_writer_matches_per_row_reference(tmp_path, write_v1, convert):
    det = DetectorModel(scale=2.5, offset=-0.7, dark_fraction=0.3)
    ds = generate_run(RunSpec(eta_true=0.9, n_vacuum=700, n_fock=500, detector=det, seed=4))
    _assert_reads_as_per_row_reference(ds, tmp_path, write_v1, convert)


def _reference_run():
    # focktomo simulate --eta 0.553 --n-vacuum 200000 --n-fock 12000 --seed 42
    return generate_run(RunSpec(eta_true=0.553, n_vacuum=200_000, n_fock=12_000, seed=42))


def test_reference_run_file_is_frozen(tmp_path):
    path = tmp_path / "run.dat"
    write_dataset(_reference_run(), path)
    data = path.read_bytes()
    assert len(data) == 1_696_163
    assert hashlib.sha256(data).hexdigest() == (
        "59635fa4ec699cf32bf327aeedb1054080678afb53b3fe88b033e0252ca1ee5a")


def test_v1_and_v2_reference_files_convert_to_the_v3_file(tmp_path, write_v1, write_v2,
                                                          convert, capsys):
    # the format_version=1 and 2 files focktomo simulate wrote before
    # version 3, byte for byte, convert to the bytes of the version 3 file
    ds = _reference_run()
    for old, sha256 in (
            (write_v1(ds, tmp_path / "run42.txt"),
             "3ec5dc4858475fd01c50c49c05a2258965fe65a7f41d9686ee65ad38696f3e7e"),
            (write_v2(ds, tmp_path / "run42_v2.dat"),
             "749ead7f1929ee50806d44ff50e865a8712df028697a6f3b06dd36f7265be60c")):
        assert hashlib.sha256(old.read_bytes()).hexdigest() == sha256
        new = tmp_path / f"{old.stem}.v3"
        assert convert.main([str(old), str(new)]) == 0
        assert capsys.readouterr().out == (
            f"wrote 212000 samples (vacuum 200000, signal 12000) to {new}\n")
        data = new.read_bytes()
        assert len(data) == 1_696_163
        assert hashlib.sha256(data).hexdigest() == (
            "59635fa4ec699cf32bf327aeedb1054080678afb53b3fe88b033e0252ca1ee5a")


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_writer_matches_per_row_reference_for_any_finite_double(tmp_path_factory, write_v1,
                                                                  convert, raw):
    _assert_reads_as_per_row_reference(_raw_column_run(raw), tmp_path_factory.getbasetemp(),
                                       write_v1, convert)


def test_writer_matches_per_row_reference_at_the_edges(tmp_path, write_v1, convert,
                                                       format2_columns):
    tiny, big = 5e-324, np.finfo(float).max
    edges = [0.0, tiny, big, 1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0),
             1e15, np.nextafter(1e15, 0.0), 1e16, np.nextafter(1e16, 0.0), 0.1, 2.5e-5,
             123.4, 0.25, 9.5, 999999999999999.9, 257566214602898.875]
    edges += [2.0 ** e for e in range(-1074, 1024, 7)]
    edges += list(10.0 ** np.arange(-5, 17))
    ds = _raw_column_run(np.concatenate([edges, np.negative(edges)]))
    # phase edges the converter accepts: 0, the smallest double, 1e-4 and the
    # largest double below 2 pi
    phase = format2_columns(ds.spec)[0]
    phase[:4] = [0.0, tiny, 1e-4, np.nextafter(2.0 * np.pi, 0.0)]
    _assert_reads_as_per_row_reference(ds, tmp_path, write_v1, convert, phase)


def _value_with_low_byte(byte):
    # a value near 1 whose first little-endian byte is `byte`
    bits = np.array([1.0]).view(np.uint64) & ~np.uint64(0xFF) | np.uint64(byte)
    return float(bits.view(np.float64)[0])


@pytest.mark.parametrize("byte", [0x23, 0x0A])  # '#' and '\n'
def test_body_starting_with_a_header_byte_reads_back(tmp_path, byte):
    ds = generate_run(RunSpec(eta_true=0.5, n_vacuum=5, n_fock=5, seed=8))
    ds.raw_value[0] = _value_with_low_byte(byte)
    path = tmp_path / "run.dat"
    write_dataset(ds, path)
    assert path.read_bytes().split(b"# end_header\n")[1][0] == byte
    assert np.array_equal(read_dataset(path).raw_value, ds.raw_value)


@pytest.mark.parametrize("cut,extra", [(1, b""), (16, b""), (0, b"\0"), (0, bytes(16))])
def test_read_rejects_body_of_wrong_length(tmp_path, cut, extra):
    # truncated by a byte or two values, or one byte or two values too long
    path = tmp_path / "run.dat"
    write_dataset(generate_run(RunSpec(eta_true=0.5, n_vacuum=5, n_fock=5, seed=8)), path)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - cut] + extra)
    with pytest.raises(DatasetFormatError, match="expected 8 \\* \\(n_vacuum \\+ n_fock\\) = 80"):
        read_dataset(path)


def test_read_never_allocates_the_header_count(tmp_path):
    # a header claiming 10**15 vacuum samples over a 16-byte body
    path = tmp_path / "run.dat"
    write_dataset(generate_run(RunSpec(eta_true=0.5, n_vacuum=1, n_fock=1, seed=8)), path)
    path.write_bytes(path.read_bytes().replace(b"# n_vacuum=1\n", b"# n_vacuum=%d\n" % 10**15))
    with pytest.raises(DatasetFormatError, match="holds 16 bytes, expected 8 \\* "
                       "\\(n_vacuum \\+ n_fock\\) = 8000000000000008"):
        read_dataset(path)


def _unsupported_version_file(tmp_path):
    # a format_version=9 header over a 0.8 MB body of zeros, the size its
    # counts claim
    path = _write_and_edit(tmp_path, lambda ls: ls.__setitem__(0, "# format_version=9"))
    header = path.read_bytes().partition(b"# end_header\n")[0]
    header = header.replace(b"# n_vacuum=5\n", b"# n_vacuum=100000\n")
    path.write_bytes(header + b"# end_header\n" + bytes(8 * 100_005))
    return path


def _rejection_peak(source, match):
    # read_dataset(source) raises DatasetFormatError matching `match`; returns
    # the tracemalloc peak of the call
    tracemalloc.start()
    try:
        with pytest.raises(DatasetFormatError, match=match):
            read_dataset(source)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
@pytest.mark.parametrize("piped", [False, True])
def test_read_checks_the_header_before_the_body(tmp_path, fifo_of, piped):
    # A rejected header costs no body read: the peak is far below the body.
    # Piped, the reader closes the pipe with most of the body unsent, and
    # the feeder's broken pipe is no error.
    path = _unsupported_version_file(tmp_path)
    peak = _rejection_peak(fifo_of(path) if piped else path,
                           "^unsupported format_version 9, expected 3$")
    assert peak < 8 * 100_005 / 20


@pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
@pytest.mark.parametrize("piped", [False, True])
def test_read_names_the_converter_for_a_v2_file_before_its_body(tmp_path, fifo_of, write_v2,
                                                                 piped):
    # a format_version=2 file of 100k + 5 events, 1.6 MB of phases and raw
    # values, is rejected on its header alone
    ds = generate_run(RunSpec(eta_true=0.5, n_vacuum=100_000, n_fock=5, seed=8))
    path = write_v2(ds, tmp_path / "run_v2.dat")
    peak = _rejection_peak(fifo_of(path) if piped else path,
                           "^unsupported format_version 2, expected 3; a version 2 file "
                           "converts with scripts/convert.py OLD NEW$")
    assert peak < 16 * 100_005 / 20


@pytest.mark.parametrize("version", [1, 2, 3])
def test_read_from_a_pipe(tmp_path, fifo_of, write_v1, write_v2, convert, version):
    # the file is read once, front to back; the body is larger than a pipe's
    # buffer, so it arrives in several reads.  scripts/convert.py reads
    # versions 1 and 2.
    ds = generate_run(RunSpec(eta_true=0.5, n_vacuum=4000, n_fock=1000, seed=8))
    path = tmp_path / "run.dat"
    {1: write_v1, 2: write_v2, 3: write_dataset}[version](ds, path)
    read = read_dataset if version == 3 else convert.read_old
    from_file, from_pipe = read(path), read(fifo_of(path))
    assert from_pipe.spec == from_file.spec and from_pipe.rng_name == from_file.rng_name
    assert from_pipe.raw_value.flags.writeable and from_file.raw_value.flags.writeable
    for back in (from_file, from_pipe):
        assert np.array_equal(back.raw_value.view(np.uint64), ds.raw_value.view(np.uint64))


def test_read_never_allocates_the_header_count_from_a_pipe(tmp_path, fifo_of):
    # a header claiming 10**15 vacuum samples over a 16-byte body, piped
    path = tmp_path / "run.dat"
    write_dataset(generate_run(RunSpec(eta_true=0.5, n_vacuum=1, n_fock=1, seed=8)), path)
    path.write_bytes(path.read_bytes().replace(b"# n_vacuum=1\n", b"# n_vacuum=%d\n" % 10**15))
    with pytest.raises(DatasetFormatError, match="holds 16 bytes, expected 8 \\* "
                       "\\(n_vacuum \\+ n_fock\\) = 8000000000000008"):
        read_dataset(fifo_of(path))


@pytest.mark.parametrize("piped", [False, True])
@pytest.mark.parametrize("edit,size", [(lambda b: b[:-1], 79), (lambda b: b + b"\0", 81)],
                         ids=["short", "long"])
def test_read_rejects_body_one_byte_off(tmp_path, fifo_of, piped, edit, size):
    path = tmp_path / "run.dat"
    write_dataset(generate_run(RunSpec(eta_true=0.5, n_vacuum=5, n_fock=5, seed=8)), path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(DatasetFormatError, match=f"binary body holds {size} bytes, expected 8 "
                       "\\* \\(n_vacuum \\+ n_fock\\) = 80"):
        read_dataset(fifo_of(path) if piped else path)


def test_read_from_a_pipe_grows_its_buffer(tmp_path, fifo_of, monkeypatch):
    # a 40-byte first buffer: the 40 kB body arrives over many refills
    ds = generate_run(RunSpec(eta_true=0.5, n_vacuum=4000, n_fock=1000, seed=8))
    path = tmp_path / "run.dat"
    write_dataset(ds, path)
    monkeypatch.setattr(simulator, "_PIPE_CHUNK", 40)
    back = read_dataset(fifo_of(path))
    assert np.array_equal(back.raw_value.view(np.uint64), ds.raw_value.view(np.uint64))
    assert back.raw_value.flags.writeable


def test_read_rejects_version_and_end_line_that_disagree(tmp_path):
    # a format_version=3 header with no end line reads as the earlier text
    path = _write_and_edit(tmp_path, lambda ls: ls.remove("# end_header"))
    with pytest.raises(DatasetFormatError, match="no '# end_header' line; .*convert.py"):
        read_dataset(path)


def test_read_dataset_peak_memory_is_about_its_body(tmp_path):
    # the body is read in place: the traced peak of reading the reference
    # run stays within 1.25 times its 8 n bytes
    path = tmp_path / "run.dat"
    write_dataset(_reference_run(), path)
    tracemalloc.start()
    try:
        read_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * 212_000


def test_generate_run_peak_memory_is_about_its_raw_values():
    # one raw array, each block drawn into its slice: the traced peak of the
    # reference run (1.23 times its 8 n bytes of raw values) stays within 1.3
    tracemalloc.start()
    try:
        _reference_run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * 8 * 212_000


@pytest.mark.parametrize("name", ["a\nV 0.1 0.2", " x ", "x\n# end_header", "tab\there"])
def test_writer_rejects_rng_name_that_does_not_read_back(tmp_path, name):
    ds = generate_run(RunSpec(eta_true=0.5, n_vacuum=5, n_fock=5, seed=8))
    ds.rng_name = name
    fresh, kept = tmp_path / "fresh.dat", tmp_path / "kept.dat"
    kept.write_bytes(b"earlier contents")
    for path in (fresh, kept):
        with pytest.raises(ValidationError, match="rng_name"):
            write_dataset(ds, path)
    assert not fresh.exists()
    assert kept.read_bytes() == b"earlier contents"


@pytest.mark.parametrize("column,row,value,message", [
    ("raw_value", 3, np.nan, "non-finite"),
    ("raw_value", 0, np.inf, "non-finite"),
])
def test_writer_rejects_what_the_reader_rejects(tmp_path, column, row, value, message):
    ds = generate_run(RunSpec(eta_true=0.5, n_vacuum=5, n_fock=5, seed=8))
    getattr(ds, column)[row] = value
    fresh, kept = tmp_path / "fresh.txt", tmp_path / "kept.txt"
    kept.write_bytes(b"earlier contents")
    for path in (fresh, kept):
        with pytest.raises(ValidationError, match=message):
            write_dataset(ds, path)
    assert not fresh.exists()
    assert kept.read_bytes() == b"earlier contents"


def test_writer_rejects_columns_of_unequal_length(tmp_path):
    # a raw_value column one row short of the spec's n_vacuum + n_fock
    ds = generate_run(RunSpec(eta_true=0.5, n_vacuum=5, n_fock=5, seed=8))
    ds.raw_value = ds.raw_value[:-1]
    with pytest.raises(ValidationError, match="length n_vacuum \\+ n_fock = 10"):
        write_dataset(ds, tmp_path / "run.txt")
    assert not (tmp_path / "run.txt").exists()


def test_roundtrip_with_dark_counts_is_bit_exact(tmp_path):
    det = DetectorModel(scale=0.8, offset=1.1, dark_fraction=0.3)
    spec = RunSpec(eta_true=0.7, n_vacuum=3000, n_fock=2000, detector=det, seed=12)
    ds = generate_run(spec)
    path = tmp_path / "run.txt"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert back.spec == spec
    assert np.array_equal(back.raw_value.view(np.uint64), ds.raw_value.view(np.uint64))
    path2 = tmp_path / "again.txt"
    write_dataset(back, path2)
    assert path2.read_bytes() == path.read_bytes()


def test_seed_42_stream_is_frozen():
    # per block: the stream skips one draw per sample (format 2's phase
    # uniforms), then draws one photon uniform, one standard normal, and two
    # more normals per photon event (the first signal event here); values
    # pinned to 1e-13
    det = DetectorModel(dark_fraction=0.4)
    ds = generate_run(RunSpec(eta_true=0.553, n_vacuum=3, n_fock=3, detector=det, seed=42))
    expected = [-0.6653782102241166, -0.017361731105191933, 0.1402092372831419,
                1.0631886070255756, 0.7632141333107729, -0.0026736353956069406]
    assert np.max(np.abs(ds.raw_value - expected)) <= 1e-13


@pytest.mark.parametrize("spec", [
    RunSpec(eta_true=0.553, n_vacuum=200_000, n_fock=12_000, seed=42),
    RunSpec(eta_true=0.553, n_vacuum=0, n_fock=12_000, seed=42),
    RunSpec(eta_true=0.553, n_vacuum=200_000, n_fock=0, seed=42),
    RunSpec(eta_true=0.553, n_vacuum=20_000, n_fock=2_000, seed=42,
            detector=DetectorModel(scale=1.7, offset=0.3, dark_fraction=0.02)),
], ids=["reference", "no-vacuum", "no-signal", "detector"])
def test_raw_values_are_the_format_2_stream(format2_columns, spec):
    # format 2 drew a phase per event before each block's quadratures;
    # skipping those draws keeps every raw value bit for bit
    want = format2_columns(spec)[1]
    assert np.array_equal(generate_run(spec).raw_value.view(np.uint64), want.view(np.uint64))
