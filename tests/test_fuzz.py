"""Fuzz tests of the readers: whatever a file holds, a reader returns or
raises a ValidationError subclass, and the CLI and scripts/convert.py exit 0
or 3."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from focktomo.budget import parse_factors
from focktomo.cli import EXIT_OK, EXIT_VALIDATION, main
from focktomo.errors import DatasetFormatError, ValidationError
from focktomo.report import parse_budget_kv
from focktomo.simulator import read_dataset

# Lines close to what the readers accept, so that examples get past the
# first check more often than random text does.
_NEAR_VALID_LINES = st.sampled_from([
    "# format_version=1", "# rng=numpy-pcg64", "# seed=3", "# eta_true=0.5",
    "# scale=1.0", "# offset=0.0", "# dark_fraction=0.0", "# n_vacuum=1", "# n_fock=1",
    "# n_fock=-1", "# format_version=2", "# format_version=3", "# end_header",
    "# eta_true=nan", "# =5", "#", "# seed=1.5",
    "V 0.5 0.1", "F 1.0 -0.2", "F 7.0 0.1", "V 0.5 nan", "VX 0.1 0.1", "F 1.0",
    "budget_format_version=1", "eta_predicted=0.5", "eta_uncertainty=0.01",
    "n_factors=2", "eta_predicted=nan", "eta_uncertainty=-1", "n_factors=x",
    "eta=0.6  # note", "seed=-1", "fit_method=hist", "grid_points=3", "bogus=1",
    "vis 0.83 0.01 visibility_squared", "a 0.9 0 direct", "b 1.5 0 direct",
    "c 0.5 nan direct", "=", "key=", "a=b=c", "",
])
_TEXT = st.one_of(
    st.text(),
    st.lists(st.one_of(_NEAR_VALID_LINES, st.text(max_size=12)), max_size=16).map("\n".join),
)
_CONTENT = st.one_of(st.binary(), _TEXT.map(lambda text: text.encode("utf-8")))


def _header(version: int, n_vacuum: int, n_fock: int) -> bytes:
    return (f"# format_version={version}\n# rng=numpy-pcg64-mixture\n# seed=3\n"
            f"# eta_true=0.5\n# scale=1.0\n# offset=0.0\n# dark_fraction=0.0\n"
            f"# n_vacuum={n_vacuum}\n# n_fock={n_fock}\n# end_header\n").encode()


# A valid format_version=2 or 3 header, then any bytes: of any length, or of
# the length the header asks for (16 or 8 bytes per event).
_EVENT_BYTES = {2: 16, 3: 8}
_DATASET = st.tuples(st.sampled_from([2, 3]), st.integers(0, 3), st.integers(0, 3)).flatmap(
    lambda head: st.one_of(
        st.binary(), st.binary(min_size=_EVENT_BYTES[head[0]] * (head[1] + head[2]),
                               max_size=_EVENT_BYTES[head[0]] * (head[1] + head[2]))
    ).map(lambda body: _header(*head) + body))


@given(st.one_of(_CONTENT, _DATASET))
def test_read_dataset_returns_or_raises_validation_error(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "fuzz_dataset.txt"
    path.write_bytes(content)
    # with no end line, the content is at best the earlier text format
    if not any(line.strip() == b"# end_header" for line in content.split(b"\n")):
        with pytest.raises(DatasetFormatError):
            read_dataset(path)
        return
    try:
        read_dataset(path)
    except ValidationError:
        pass


@given(st.one_of(_CONTENT, _DATASET))
def test_any_file_converts_or_exits_3(tmp_path_factory, convert, content):
    base = tmp_path_factory.getbasetemp()
    old, new = base / "fuzz_v1.txt", base / "fuzz_converted.dat"
    old.write_bytes(content)
    new.unlink(missing_ok=True)
    code = convert.main([str(old), str(new)])
    assert code in (EXIT_OK, EXIT_VALIDATION)
    assert new.exists() == (code == EXIT_OK)


@given(_DATASET)
def test_any_v2_dataset_reconstructs_or_exits_3(tmp_path_factory, content):
    # a version 2 file exits 3 on its header; a version 3 one may reconstruct
    base = tmp_path_factory.getbasetemp()
    path = base / "fuzz_v2.dat"
    path.write_bytes(content)
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("FOCKTOMO_CONFIG", raising=False)
        assert main(["reconstruct", str(path), "-o", str(base / "fuzz_out")]) in (
            EXIT_OK, EXIT_VALIDATION)


@given(_TEXT)
def test_parse_factors_returns_or_raises_validation_error(text):
    try:
        parse_factors(text)
    except ValidationError:
        pass


@given(_TEXT)
def test_parse_budget_returns_or_raises_validation_error(text):
    try:
        parse_budget_kv(text)
    except ValidationError:
        pass


@given(_CONTENT)
def test_any_config_file_exits_0_or_3(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "fuzz_config.cfg"
    path.write_bytes(content)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("FOCKTOMO_CONFIG", str(path))
        assert main(["budget"]) in (EXIT_OK, EXIT_VALIDATION)
