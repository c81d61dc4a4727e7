"""Text codec: number formatting, tables and key = value files."""

import io
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiesmooth.textio import (fmt, parse, read_keyvals, read_table, write_keyvals,
                              write_table)

SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                  2.2250738585072014e-308, 1.7976931348623157e308, 1e-05, 0.1]

# every float but the NaNs other than float("nan"), whose sign and
# payload no text form keeps
floats = st.floats(allow_nan=False) | st.just(math.nan)
int64s = st.integers(min_value=-2**63, max_value=2**63 - 1)


def bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def table_text(header, columns) -> str:
    buf = io.StringIO()
    write_table(buf, header, columns)
    return buf.getvalue()


class TestFmt:
    @pytest.mark.parametrize("value, text", [
        (0.1, "0.1"), (-0.0, "-0.0"), (math.nan, "nan"), (math.inf, "inf"),
        (-math.inf, "-inf"), (5e-324, "5e-324"), (1e-05, "1e-05"), (1e22, "1e+22"),
        (3, "3"), (2**64, "18446744073709551616"), (True, "true"), (False, "false"),
        ("text", "text")])
    def test_builtins(self, value, text):
        assert fmt(value) == text

    @pytest.mark.parametrize("value", [np.float64(0.0), np.float32(1.5), np.int64(7),
                                       np.bool_(True), np.str_("x"), None,
                                       Path("a"), [1.0]])
    def test_rejects_everything_else(self, value):
        with pytest.raises(TypeError):
            fmt(value)

    def test_writers_reject_numpy_scalars(self):
        with pytest.raises(TypeError):
            write_table(io.StringIO(), "a", [[np.float64(1.0)]])
        with pytest.raises(TypeError):
            write_keyvals(io.StringIO(), {"a": np.float64(1.0)})


class TestParse:
    def test_bools_are_true_or_false(self):
        assert parse("true", bool) is True
        assert parse("false", bool) is False
        for text in ("True", "1", "yes", "0", ""):
            with pytest.raises(ValueError):
                parse(text, bool)

    def test_numbers(self):
        assert parse("3", int) == 3
        assert parse("-0.0", float) == 0.0 and math.copysign(1, parse("-0.0", float)) < 0
        with pytest.raises(ValueError):
            parse("1.5", int)
        with pytest.raises(ValueError):
            parse("np.float64(0.0)", float)


class TestTable:
    def test_layout(self):
        text = table_text("t,x,on", [np.array([0, 10]), [0.5, math.nan],
                                     np.array([True, False])])
        assert text == "t,x,on\n0,0.5,true\n10,nan,false\n"

    def test_special_floats_round_trip_bit_for_bit(self):
        text = table_text("i,x", [list(range(len(SPECIAL_FLOATS))), SPECIAL_FLOATS])
        cols = read_table(io.StringIO(text), "i,x", ints=("i",))
        assert bits(cols["x"]) == bits(SPECIAL_FLOATS)
        assert cols["i"].dtype == np.int64 and cols["x"].dtype == np.float64

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(int64s, floats, floats), max_size=40))
    def test_round_trip_bit_for_bit(self, rows):
        ints, xs, ys = (list(c) for c in zip(*rows)) if rows else ([], [], [])
        text = table_text("n,x,y", [ints, np.array(xs, dtype=float), ys])
        cols = read_table(io.StringIO(text), "n,x,y", ints=("n",))
        assert cols["n"].tolist() == ints
        assert bits(cols["x"]) == bits(xs) and bits(cols["y"]) == bits(ys)
        assert table_text("n,x,y", [cols["n"], cols["x"], cols["y"]]) == text

    def test_blank_lines_skipped_and_empty_table(self):
        cols = read_table(io.StringIO("a,b\n\n1,2.5\n\n"), "a,b", ints=("a",))
        assert cols["a"].tolist() == [1] and cols["b"].tolist() == [2.5]
        empty = read_table(io.StringIO("a,b\n"), "a,b", ints=("a",))
        assert empty["a"].dtype == np.int64 and len(empty["b"]) == 0

    @pytest.mark.parametrize("text", [
        "a,c\n1,2.0\n",            # wrong header
        "",                        # no header
        "a,b\n1,2.0\n3\n",         # short row
        "a,b\n1,2.0,4.0\n",        # long row
        "a,b\n1,x\n",              # unparseable float
        "a,b\n1.5,2.0\n",          # float in an int column
        "a,b\n9223372036854775808,2.0\n",  # int beyond int64
    ])
    def test_malformed_tables_rejected(self, text):
        with pytest.raises(ValueError):
            read_table(io.StringIO(text), "a,b", ints=("a",))

    @pytest.mark.parametrize("text", ["a,b\n1.5,2.0\n", "a,b\n9223372036854775808,2.0\n"])
    def test_int_cells_rejected_whatever_the_warning_filters(self, text):
        # NumPy < 2.4 reads such a cell through a float and only warns, which
        # the interpreter's default filters silence outside the test suite
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError):
                read_table(io.StringIO(text), "a,b", ints=("a",))

    def test_writer_checks_column_shape(self):
        with pytest.raises(ValueError):
            write_table(io.StringIO(), "a,b", [[1.0]])
        with pytest.raises(ValueError):
            write_table(io.StringIO(), "a,b", [[1.0], [1.0, 2.0]])


class TestKeyvals:
    def test_round_trip_with_sections_and_comments(self):
        buf = io.StringIO()
        buf.write("# a comment\n\n")
        write_keyvals(buf, {"a": 1, "b": -0.0, "c": True, "d": "x = y", "e": ""})
        buf.write("[sec]\n")
        write_keyvals(buf, {"a": 2.5})
        text = buf.getvalue()
        assert "a = 1\nb = -0.0\nc = true\nd = x = y\ne = \n" in text
        assert read_keyvals(io.StringIO(text)) == {
            "a": "1", "b": "-0.0", "c": "true", "d": "x = y", "e": "", "sec.a": "2.5"}

    @pytest.mark.parametrize("text", ["a = 1\na = 2\n", "[s]\na = 1\n[s]\na = 2\n",
                                      "no pair here\n", "= 5\n"])
    def test_malformed_files_rejected(self, text):
        with pytest.raises(ValueError):
            read_keyvals(io.StringIO(text))
