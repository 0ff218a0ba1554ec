"""The one line format of every focktomo text file.

A key=value line is split once at its first '=', with key and value
stripped; an empty key is an error.  In budget and factor files '#' starts
a comment that runs to the end of the line, and blank lines are skipped.
Floats are written with repr, the shortest string that reads back to the
same double, and booleans as true/false.  What a reader does with an unknown
key is its own decision, made where it calls parse_kv.
"""

from __future__ import annotations

import sys
from typing import Iterable, Iterator, Mapping

from .errors import DatasetFormatError


def format_value(value) -> str:
    # A numpy scalar exists only once numpy is loaded, so numpy is looked up
    # here, never imported.
    np = sys.modules.get("numpy")
    if isinstance(value, bool) or (np is not None and isinstance(value, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float) or (np is not None and isinstance(value, np.floating)):
        return repr(float(value))
    return str(value)


def format_kv(mapping: Mapping, prefix: str = "") -> list[str]:
    """One 'prefix key=value' line per item, in mapping order."""
    return [f"{prefix}{key}={format_value(value)}" for key, value in mapping.items()]


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each line that holds more than a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_kv(lines: Iterable[tuple[int, str]], types: Mapping, what: str,
             required: Iterable[str] = ()) -> dict:
    """Parse numbered key=value lines into a dict, the last value of a key
    winning.  Keys named in `types` are converted with their type, others
    stay strings; a malformed line, a bad value or a missing required key
    raises DatasetFormatError."""
    data: dict[str, object] = {}
    for lineno, line in lines:
        key, eq, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not (eq and key):
            raise DatasetFormatError(f"line {lineno}: malformed {what} line {line!r}, "
                                     "expected key=value")
        if key in types:
            try:
                value = types[key](value)
            except ValueError as exc:
                raise DatasetFormatError(
                    f"line {lineno}: unparseable {what} value for {key!r}: {exc}"
                ) from exc
        data[key] = value
    missing = [key for key in required if key not in data]
    if missing:
        raise DatasetFormatError(f"{what} missing keys: {', '.join(missing)}")
    return data


def write_table(path, header: Mapping, columns) -> None:
    """Write '# key=value' header lines, then one space-separated row per
    element of the equal-length numeric columns.  tolist() makes every cell
    a Python int or float, whose repr is what format_value would write."""
    import numpy as np

    lines = format_kv(header, prefix="# ")
    rows = zip(*(np.asarray(column).tolist() for column in columns))
    lines += [" ".join(map(repr, row)) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
