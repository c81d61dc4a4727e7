"""Text codec: the one place where values become text and text becomes values.

The simulator's files are tables (a comma-separated header line, then one
row per record) and `key = value` files (blank lines and whole-line `#`
comments ignored, `[section]` lines prefixing the keys after them with
`section.`); the baseline model file, one number a line, uses `fmt` and
`parse` directly.  Floats are written with `repr`, which reads back as the
same bits (NaN, +-inf, -0.0 and subnormals included), ints with `str`,
bools as `true` / `false`.  NumPy scalars are refused: their `repr` changed
in NumPy 2 (`np.float64(0.0)`), so letting one through would make the files
depend on the NumPy version.  Arrays become builtins via `.tolist()`."""

from __future__ import annotations

import warnings
from typing import Mapping, Sequence, TextIO

import numpy as np


_FORMATS = {float: repr, int: repr, bool: lambda b: "true" if b else "false", str: str}


def fmt(value) -> str:
    """Text of a builtin float, int, bool or str; anything else is a TypeError."""
    try:
        return _FORMATS[type(value)](value)
    except KeyError:
        raise TypeError(f"cannot write {value!r}: only builtin float, int, bool and str "
                        f"are written, not {type(value).__qualname__}") from None


def _texts(column) -> list[str]:
    """`fmt` of each value; a column of one builtin kind skips the per-value dispatch."""
    values = column.tolist() if isinstance(column, np.ndarray) else column
    kinds = set(map(type, values))
    return list(map(_FORMATS.get(kinds.pop(), fmt) if len(kinds) == 1 else fmt, values))


def parse(text: str, kind: type):
    """The value of `text` as `kind` (float, int, bool or str); ValueError if malformed."""
    if kind is bool:
        if text not in ("true", "false"):
            raise ValueError(f"expected true or false, got {text!r}")
        return text == "true"
    return kind(text)


def write_table(fh: TextIO, header: str, columns: Sequence) -> None:
    """Write a header line and one row per element of the equal-length columns."""
    cells = [_texts(c) for c in columns]
    if len(cells) != header.count(",") + 1 or any(len(c) != len(cells[0]) for c in cells):
        raise ValueError(f"columns do not match the header {header!r} or differ in length")
    fh.write(header + "\n" + "".join([",".join(row) + "\n" for row in zip(*cells)]))


def read_table(fh: TextIO, header: str, ints: Sequence[str] = ()) -> dict[str, np.ndarray]:
    """One column per header name: int64 for the names in `ints`, float otherwise.

    Raises ValueError on a header other than `header`, a row of the
    wrong width or a cell that does not parse.  Blank lines are skipped.
    """
    first = fh.readline().strip()
    if first != header:
        raise ValueError(f"unexpected header {first!r}, expected {header!r}")
    names = header.split(",")
    dtype = [(name, np.int64 if name in ints else float) for name in names]
    try:
        with warnings.catch_warnings():  # a table of no rows is a table; 1.5 is no int
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            warnings.filterwarnings("error", "loadtxt.*integer via a float", DeprecationWarning)
            table = np.loadtxt((line for line in fh if not line.isspace()), dtype=dtype,
                               delimiter=",", comments=None, ndmin=1)  # NumPy's C parser
    except (ValueError, OverflowError) as exc:
        raise ValueError(str(exc)) from None
    return {name: table[name].copy() for name in names}  # each column contiguous


def write_keyvals(fh: TextIO, values: Mapping[str, object]) -> None:
    """One `key = value` line per item, in mapping order."""
    for key, value in values.items():
        fh.write(f"{key} = {fmt(value)}\n")


def read_keyvals(fh: TextIO) -> dict[str, str]:
    """The `key = value` pairs of a file as text, keys prefixed by their section.

    Raises ValueError on a repeated key and on a line that is neither a
    pair, a `[section]` header, a `#` comment nor blank.
    """
    out: dict[str, str] = {}
    prefix = ""
    for number, raw in enumerate(fh, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            prefix = line[1:-1].strip() + "."
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or not key or prefix + key in out:
            raise ValueError(f"line {number} is not a new `key = value`: {raw.rstrip()!r}")
        out[prefix + key] = value
    return out
