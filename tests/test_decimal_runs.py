"""The exact Decimal runs the CLI prints from, pinned to the int path.

``decimal_terms``, ``decimal_gap_sequence`` and ``decimal_expansion``
return runs that, read under ``exact()`` as the CLI reads them, must give,
value for value, the same text as ``terms``, ``gap_sequence`` and
``RatFunc.expand``; the int functions are the reference.
"""

import decimal
import io
import json
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapseq.cli as cli
from gapseq import gaps, sequences
from gapseq._decimal import _DIRECT_BITS, exact, int_to_str, str_to_int, to_decimal
from gapseq.cli import run
from gapseq.gaps import (
    decimal_gap_sequence,
    gap_sequence,
    gap_sum_abs_between,
    gap_sum_between,
    gap_sum_signed_between,
)
from gapseq.genfun import GF_KINDS, decimal_expansion, horadam_gf, ratfunc
from gapseq.sequences import FIBONACCI, Geometric, Horadam, Linear, Primes, decimal_terms, terms

from conftest import HAS_DIGIT_LIMIT, int_digit_limit, sized_ints

GAP_SUMS = (gap_sum_between, gap_sum_signed_between, gap_sum_abs_between)

horadams = st.builds(
    Horadam, st.integers(-9, 9), st.integers(-9, 9), st.integers(-5, 5), st.integers(-5, 5),
    st.integers(0, 5),
)
geometrics = st.builds(Geometric, st.integers(2, 12), st.integers(-10**6, 10**6))
starts = st.one_of(st.integers(0, 40), st.integers(0, 5000))


def texts(values):
    """The builtin str of each value, as the reference, lifting the limit here only."""
    with int_digit_limit(0):
        return [str(v) for v in values]


def read(run):
    """The values of a run to print, read under the exact context as the CLI reads it."""
    with exact():
        return list(run)


def bits_exactly(bits):
    return st.integers(2 ** (bits - 1), 2**bits - 1)


# Widths on both sides of the direct-conversion limit and of the first
# power-of-two splits above it.
EDGE_BITS = sorted({w + d for w in (_DIRECT_BITS, 2 * _DIRECT_BITS, 4 * _DIRECT_BITS,
                                    8 * _DIRECT_BITS) for d in (-2, -1, 0, 1, 2)})


class TestToDecimal:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.integers(), st.sampled_from(EDGE_BITS).flatmap(bits_exactly),
                     st.sampled_from(EDGE_BITS).map(lambda b: 2**b),
                     st.sampled_from(EDGE_BITS).map(lambda b: 2**b - 1)),
           st.booleans())
    def test_matches_decimal_of_int(self, n, negative):
        n = -n if negative else n
        got = to_decimal(n)
        assert got.as_tuple() == Decimal(n).as_tuple()

    def test_zero_has_no_sign(self):
        assert to_decimal(0).as_tuple() == Decimal(0).as_tuple()
        assert to_decimal(-0).as_tuple().sign == 0


class TestIntText:
    """int_to_str and str_to_int are str and int with the digit limit
    lifted, under whatever limit is set."""

    @settings(max_examples=300, deadline=None)
    @given(sized_ints(), st.sampled_from([640, 4300]))
    def test_int_to_str_is_str(self, n, limit):
        with int_digit_limit(0):
            want = str(n)
        with int_digit_limit(limit):
            assert int_to_str(n) == want

    @settings(max_examples=300, deadline=None)
    @given(sized_ints(), st.sampled_from(["", "+"]), st.integers(0, 3),
           st.sampled_from([640, 4300]))
    def test_str_to_int_is_int(self, n, plus, zeros, limit):
        with int_digit_limit(0):
            text = ("-" if n < 0 else plus) + "0" * zeros + str(abs(n))
        with int_digit_limit(limit):
            assert str_to_int(text) == n

    def test_within_the_limit_it_is_int(self):
        texts = ["+5", "-5", "1_000", " 7\n", "\u0663", "0" * 600 + "1"]
        assert [str_to_int(t) for t in texts] == [5, -5, 1000, 7, 3, 1]

    @pytest.mark.skipif(not HAS_DIGIT_LIMIT, reason="Python 3.10 has no int/str digit limit")
    @pytest.mark.parametrize("text", [
        "1_" + "0" * 5000,
        "\u0663" * 5000,
        "--" + "1" * 5000,
        "+-" + "1" * 5000,
        " " + "1" * 5000,
        "1" * 5000 + "x",
    ])
    def test_past_the_limit_only_ascii_digits(self, text):
        with int_digit_limit(4300), pytest.raises(ValueError):
            str_to_int(text)


class TestDecimalTerms:
    @settings(max_examples=300, deadline=None)
    @given(horadams, starts, st.integers(0, 40))
    def test_horadam_matches_terms(self, spec, n0, count):
        got = read(decimal_terms(spec, n0, count))
        assert texts(got) == texts(terms(spec, n0, count))
        assert all(isinstance(v, Decimal) for v in got)

    @settings(max_examples=200, deadline=None)
    @given(geometrics, starts, st.integers(0, 40))
    def test_geometric_matches_terms(self, spec, n0, count):
        got = read(decimal_terms(spec, n0, count))
        assert texts(got) == texts(terms(spec, n0, count))
        assert all(isinstance(v, Decimal) for v in got)

    def test_zero_run_prints_no_negative_zero(self):
        assert texts(decimal_terms(Horadam(0, 0, -1, -1), 0, 4)) == ["0"] * 4

    def test_other_families_are_terms(self):
        for spec in (Linear(3, 1), Primes()):
            assert read(decimal_terms(spec, 5, 20)) == terms(spec, 5, 20)

    def test_errors_are_those_of_terms(self):
        with pytest.raises(IndexError):
            decimal_terms(FIBONACCI, -1, 3)
        with pytest.raises(ValueError):
            decimal_terms(FIBONACCI, 0, -1)


class TestDecimalGapSums:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(horadams, geometrics), st.sampled_from(GAP_SUMS), st.integers(0, 60))
    def test_matches_gap_sequence(self, spec, stat, count):
        got = read(decimal_gap_sequence(stat, spec, count))
        assert texts(got) == texts(gap_sequence(stat, spec, count))
        # A Decimal equals the int it denotes, so only the type shows that
        # the sums were taken on the Decimal run; the clamped sum of an
        # empty gap is the int 0 on either run.
        assert all(isinstance(v, Decimal) for v in got if v or stat is not gap_sum_between)

    def test_signed_zero_sum_prints_no_negative_zero(self):
        got = decimal_gap_sequence(gap_sum_signed_between, Geometric(2, -50), 3)
        assert texts(got) == ["0", "-47", "-132"]

    @pytest.mark.parametrize("count", [-1, -5])
    def test_negative_count_is_that_of_gap_sequence(self, count):
        with pytest.raises(ValueError, match=f"^count must be >= 0, got {count}$"):
            decimal_gap_sequence(gap_sum_between, FIBONACCI, count)


class TestDecimalExpansion:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-20, 20), max_size=5),
           st.sampled_from((1, -1)), st.lists(st.integers(-6, 6), max_size=4),
           st.integers(0, 80))
    def test_integer_series_matches_expand(self, num, lead, den_rest, count):
        f = ratfunc(num, [lead, *den_rest])
        assert texts(read(decimal_expansion(f, count))) == texts(f.expand(count))

    def test_scale_one_runs_on_decimal(self):
        got = decimal_expansion(ratfunc([1], [1, -1, -1]), 10)
        assert all(isinstance(v, Decimal) for v in got)

    @settings(max_examples=100, deadline=None)
    @given(horadams, st.sampled_from(list(GF_KINDS)), st.integers(0, 200))
    def test_horadam_gfs_match_expand(self, spec, kind, count):
        try:
            f = horadam_gf(spec, kind)
        except ArithmeticError:  # degenerate seeds the builders reject
            return
        assert texts(read(decimal_expansion(f, count))) == texts(f.expand(count))

    def test_other_scales_are_expand(self):
        for f in (ratfunc([1, 1], [3, 1]), ratfunc([Fraction(1, 2), 1], [1, -1])):
            assert decimal_expansion(f, 12) == f.expand(12)


class TestCliRuns:
    @pytest.mark.parametrize("argv", [
        ["terms", "--spec", "horadam:2,-3,-2,3,1", "--count", "400", "--from", "9"],
        ["gapsum", "--spec", "geom:3,-7", "--signed", "--count", "300"],
        ["gapsum", "--spec", "pell", "--abs", "--count", "300"],
        ["gf", "--horadam", "1,2,2,2", "--gapsum", "--expand", "300"],
        ["expand", "--num", "1", "--den", "1,-3,1", "--count", "300"],
        ["expand", "--num", "1,1/2", "--den", "1,-1/3", "--count", "20"],
    ])
    def test_json_bytes_match_one_dumps(self, capsys, argv):
        assert run(argv) == 0
        text = capsys.readouterr().out
        assert run(argv + ["--format", "json"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert out == json.dumps(doc) + "\n"
        key = "expansion" if argv[0] == "gf" else "values"
        assert [str(v) for v in doc[key]] == text.split()[-len(doc[key]):]

    @pytest.mark.parametrize("argv, want", [
        (["gapsum", "--spec", "geom:2,-50", "--signed", "--count", "3"], "0 -47 -132\n"),
        (["terms", "--spec", "horadam:0,0,-1,-1", "--count", "4"], "0 0 0 0\n"),
    ])
    def test_no_negative_zero(self, capsys, argv, want):
        assert run(argv) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("command", ["terms", "gapsum"])
    def test_fibonacci_seeds_are_lifted(self, capsys, monkeypatch, command):
        """The seeds h(0), h(1) and the coefficients r, s of the run, in
        that order, go through to_decimal once each, whatever module runs it."""
        lifted = []

        def spy(n):
            lifted.append(n)
            return to_decimal(n)

        for module in (sequences, gaps):
            monkeypatch.setattr(module, "to_decimal", spy)
        assert run([command, "--spec", "fib", "--count", "6"]) == 0
        assert lifted == [0, 1, 1, 1]
        want = {"terms": "0 1 1 2 3 5\n", "gapsum": "0 0 0 0 4 13\n"}[command]
        assert capsys.readouterr().out == want

    def test_callers_decimal_context_is_unchanged(self, capsys):
        with decimal.localcontext() as ctx:
            ctx.prec, ctx.rounding = 5, decimal.ROUND_FLOOR
            before = repr(ctx)
            assert run(["gapsum", "--spec", "geom:2,-50", "--signed", "--count", "300"]) == 0
            out = capsys.readouterr().out
            assert decimal.getcontext() is ctx
            assert repr(ctx) == before
        want = gap_sequence(gap_sum_signed_between, Geometric(2, -50), 300)
        assert out.split() == texts(want)

    def test_exact_context_traps_rounding(self):
        with exact(), pytest.raises(decimal.Inexact):
            Decimal("0.5").to_integral_exact()


class TestChunkedWriter:
    def test_writes_are_bounded_and_join_to_the_text(self, monkeypatch):
        writes = []
        stream = io.StringIO()
        stream.write = lambda s: writes.append(s) or len(s)
        monkeypatch.setattr(cli.sys, "stdout", stream)
        assert run(["terms", "--spec", "fib", "--count", "3000"]) == 0
        assert "".join(writes) == " ".join(texts(terms(FIBONACCI, 0, 3000))) + "\n"
        assert len(writes) > 3
        assert max(map(len, writes)) <= 2 * cli._WRITE_CHARS

    def test_writes_are_few(self, monkeypatch):
        """After a ramp of a few short writes, each write carries about
        _WRITE_CHARS of text, not a value or a few."""
        writes = []
        stream = io.StringIO()
        stream.write = lambda s: writes.append(s) or len(s)
        monkeypatch.setattr(cli.sys, "stdout", stream)
        assert run(["terms", "--spec", "fib", "--count", "3000"]) == 0
        assert len(writes) <= len("".join(writes)) // cli._WRITE_CHARS + 8

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_small_writes_give_the_same_bytes(self, capsys, monkeypatch, fmt):
        argv = ["terms", "--spec", "geom:3,-2", "--count", "200", "--format", fmt]
        assert run(argv) == 0
        want = capsys.readouterr().out
        monkeypatch.setattr(cli, "_WRITE_CHARS", 7)
        assert run(argv) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("argv", [
        ["gapprod", "--spec", "geom:2", "--count", "12"],
        ["expand", "--num", "1,2", "--den", "1,-" + "9" * 600 + "/7", "--count", "12"],
        ["gaps", "--spec", "horadam:0,-1,1" + "0" * 600 + ",0", "--count", "10"],
    ])
    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_small_writes_past_the_digit_limit(self, capsys, monkeypatch, argv, fmt):
        assert run(argv + ["--format", fmt]) == 0
        want = capsys.readouterr().out
        monkeypatch.setattr(cli, "_WRITE_CHARS", 7)
        assert run(argv + ["--format", fmt]) == 0
        assert capsys.readouterr().out == want
        assert max(map(len, want.replace(",", " ").split())) > 4300

    @pytest.mark.parametrize("fmt, want", [
        ("text", "\n"),
        ("csv", "n,value\n"),
        ("json", json.dumps({"command": "terms", "spec": "fib", "values": [], "start": 0}) + "\n"),
    ])
    def test_empty_output(self, capsys, fmt, want):
        assert run(["terms", "--spec", "fib", "--count", "0", "--format", fmt]) == 0
        assert capsys.readouterr().out == want
