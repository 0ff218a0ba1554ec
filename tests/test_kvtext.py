import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from focktomo.errors import DatasetFormatError
from focktomo.kvtext import content_lines, format_kv, format_value, parse_kv, write_table

# Characters a key or string value may hold: no '=' or '#', and nothing that
# str.splitlines treats as a line break (control characters, U+2028/U+2029).
_TEXT_CHARS = st.characters(blacklist_characters="=#",
                            blacklist_categories=("Cs", "Cc", "Zl", "Zp"))
_KEYS = st.text(_TEXT_CHARS, min_size=1, max_size=12).map(str.strip).filter(bool)
_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-2**63, max_value=2**63),
    st.text(_TEXT_CHARS, max_size=20).map(str.strip),
)


@given(st.dictionaries(_KEYS, _VALUES, max_size=8))
def test_format_then_parse_round_trips(data):
    types = {key: type(value) for key, value in data.items()}
    text = "\n".join(format_kv(data))
    assert parse_kv(content_lines(text), types, "test") == data


def test_format_value():
    assert format_value(True) == "true"
    assert format_value(np.bool_(False)) == "false"
    assert format_value(np.float64(0.553)) == "0.553"
    assert format_value(np.float32(0.5)) == "0.5"
    assert format_value(1.0) == "1.0"
    assert format_value(np.int64(7)) == "7"
    assert format_value("numpy-pcg64") == "numpy-pcg64"


def test_format_kv_prefix_and_order():
    assert format_kv({"b": 1, "a": 0.25}, prefix="# ") == ["# b=1", "# a=0.25"]


def test_content_lines_drops_comments_and_blanks():
    text = "# heading\n\n  a = 1  # note\n\t\nb=2#x\n#c=3\n"
    assert list(content_lines(text)) == [(3, "a = 1"), (5, "b=2")]


def test_parse_kv_splits_once_and_last_value_wins():
    lines = [(1, "rng = a=b"), (2, "n=1"), (3, "n = 2")]
    assert parse_kv(lines, {"n": int}, "test") == {"rng": "a=b", "n": 2}


@pytest.mark.parametrize("line", ["=5", " = 5", "no equals sign"])
def test_parse_kv_rejects_malformed_line(line):
    with pytest.raises(DatasetFormatError, match="line 7: malformed test line"):
        parse_kv([(7, line)], {}, "test")


def test_parse_kv_names_line_and_key_of_bad_value():
    with pytest.raises(DatasetFormatError, match="line 2: unparseable test value for 'n'"):
        parse_kv([(1, "x=1"), (2, "n=1.5")], {"n": int}, "test")


def test_parse_kv_reports_missing_required_keys():
    with pytest.raises(DatasetFormatError, match="test missing keys: a, c"):
        parse_kv([(1, "b=1")], {}, "test", required=("a", "b", "c"))


def test_write_table(tmp_path):
    path = tmp_path / "table.txt"
    write_table(path, {"n": 2, "columns": "x count"},
                (np.array([0.1, 0.25]), np.array([3, 4])))
    assert path.read_text() == "# n=2\n# columns=x count\n0.1 3\n0.25 4\n"
