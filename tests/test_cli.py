import argparse
import contextlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import gapseq
import gapseq._decimal as _decimal
import gapseq.cli as cli
import gapseq.gaps as gaps
import gapseq.oeis as oeis
from gapseq.cli import parse_spec, run
from gapseq.combinatorics import fuss_catalan, raney
from gapseq.gaps import gap, gap_product, gap_sum, gap_sum_abs, gap_sum_signed
from gapseq.genfun import GF_KINDS, horadam_gf, ratfunc, ratfunc_to_text
from gapseq.sequences import (
    FIBONACCI,
    Binomial,
    Explicit,
    Fold,
    Geometric,
    Horadam,
    Linear,
    Polynomial,
    Primes,
    SpecError,
    terms,
)

from conftest import FIXTURES, HAS_DIGIT_LIMIT, int_digit_limit


# "A" and the Arabic-Indic digits 1 to 6, which \d matches and an A-number may not hold.
ARABIC_INDIC_ID = "A\u0661\u0662\u0663\u0664\u0665\u0666"


def run_ok(capsys, argv):
    rc = run(argv)
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    return captured.out


class TestParseSpec:
    @pytest.mark.parametrize(
        "text,want",
        [
            ("horadam:1,3,1,2", Horadam(1, 3, 1, 2)),
            ("horadam:0,1,1,2,2", Horadam(0, 1, 1, 2, shift=2)),
            ("fib", Horadam(0, 1, 1, 1)),
            ("jacobsthal", Horadam(0, 1, 1, 2)),
            ("pell", Horadam(0, 1, 2, 1)),
            ("primes", Primes()),
            ("fold", Fold()),
            ("linear:3,1", Linear(3, 1)),
            ("geom:2", Geometric(2)),
            ("geom:2,-1", Geometric(2, -1)),
            ("poly:0,1/2,1/2", Polynomial((0, Fraction(1, 2), Fraction(1, 2)))),
            ("binom:2,3", Binomial(2, 3)),
            ("explicit:1,2,3", Explicit((1, 2, 3))),
        ],
    )
    def test_grammar(self, text, want):
        assert parse_spec(text) == want

    def test_error_reports_position(self):
        with pytest.raises(SpecError) as err:
            parse_spec("linear:3;1")
        assert str(err.value).endswith(" (at position 7 in 'linear:3;1')")

    def test_unknown_family(self):
        with pytest.raises(SpecError):
            parse_spec("tribonacci:1,1,1")
        with pytest.raises(SpecError):
            parse_spec("nonsense")

    def test_invalid_parameters(self):
        with pytest.raises(SpecError):
            parse_spec("geom:1")
        with pytest.raises(SpecError):
            parse_spec("poly:1/2")
        with pytest.raises(SpecError):
            parse_spec("explicit:5")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("poly:1/2", "p(0) = 1/2"),
            ("poly:0,1/3", "p(1) = 1/3"),
            ("poly:1,3/2", "p(1) = 5/2"),
        ],
    )
    def test_non_integer_valued_poly_names_first_bad_value(self, text, message):
        with pytest.raises(SpecError) as err:
            parse_spec(text)
        assert str(err.value) == (
            f"polynomial is not integer-valued: {message} (at position 5 in {text!r})"
        )

    def test_wrong_arity(self):
        with pytest.raises(SpecError):
            parse_spec("linear:3")
        with pytest.raises(SpecError):
            parse_spec("horadam:1,2,3")


class TestTermsCommand:
    def test_text_golden(self, capsys):
        out = run_ok(capsys, ["terms", "--spec", "fib", "--count", "8"])
        want = " ".join(str(v) for v in terms(FIBONACCI, 0, 8))
        assert out.strip() == want

    def test_from_offset(self, capsys):
        out = run_ok(capsys, ["terms", "--spec", "primes", "--count", "3", "--from", "2"])
        assert out.split() == [str(v) for v in terms(Primes(), 2, 3)]

    def test_json_reparses_to_text_values(self, capsys):
        argv = ["terms", "--spec", "horadam:1,2,2,2", "--count", "7"]
        text_values = run_ok(capsys, argv).split()
        doc = json.loads(run_ok(capsys, argv + ["--format", "json"]))
        assert [str(v) for v in doc["values"]] == text_values
        assert doc["start"] == 0

    def test_csv_has_header(self, capsys):
        out = run_ok(capsys, ["terms", "--spec", "fib", "--count", "3", "--format", "csv"])
        lines = out.strip().splitlines()
        assert lines[0] == "n,value"
        assert lines[1:] == [f"{n},{v}" for n, v in enumerate(terms(FIBONACCI, 0, 3))]


class TestGapsCommand:
    def test_text_golden(self, capsys):
        out = run_ok(capsys, ["gaps", "--spec", "horadam:1,3,1,2", "--count", "3"])
        lines = out.strip().splitlines()
        spec = Horadam(1, 3, 1, 2)
        for n, line in enumerate(lines):
            g = gap(spec, n)
            elements = ",".join(str(e) for e in g.elements) or "-"
            assert line == f"{n} {g.start} {g.length} {elements}"

    def test_text_gaps_longer_than_one_write(self, capsys):
        out = run_ok(capsys, ["gaps", "--spec", "geom:2", "--count", "17"])
        gaps = [gap(Geometric(2), n) for n in range(17)]
        assert len(",".join(map(str, gaps[-1].elements))) > 3 * cli._WRITE_CHARS
        want = "".join(
            f"{n} {g.start} {g.length} {','.join(map(str, g.elements)) or '-'}\n"
            for n, g in enumerate(gaps)
        )
        assert out == want

    def test_empty_gap_marker(self, capsys):
        out = run_ok(capsys, ["gaps", "--spec", "linear:1,0", "--count", "1"])
        assert out.strip() == "0 1 0 -"

    @staticmethod
    def _peak_bytes(*fmt):
        # 2.3 MB of text, 2.7 MB of json; the last gap alone has 174761 elements.
        argv = ["gaps", "--spec", "horadam:1,3,1,2", "--count", "18", *fmt]
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            tracemalloc.start()
            try:
                rc = run(argv)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert rc == 0
        return peak

    def test_text_memory_stays_flat(self):
        assert self._peak_bytes() < 2 * 2**20

    def test_json_memory_stays_flat(self):
        assert self._peak_bytes("--format", "json") < 2 * 2**20

    @pytest.mark.parametrize(
        "spec, count",
        [("geom:2", 15), ("linear:1,0", 3), ("explicit:9,4,4,7", 3), ("fib", 0), ("fib", 1),
         ("horadam:2,-1,-3,5", 9), ("fold", 40), ("primes", 30)],
    )
    def test_json_bytes_match_one_dumps(self, capsys, spec, count):
        out = run_ok(capsys, ["gaps", "--spec", spec, "--count", str(count), "--format", "json"])
        gaps = [gap(parse_spec(spec), n) for n in range(count)]
        rows = [
            {"n": n, "start": g.start, "length": g.length, "elements": list(g.elements)}
            for n, g in enumerate(gaps)
        ]
        assert out == json.dumps({"command": "gaps", "spec": spec, "gaps": rows}) + "\n"

    def test_json(self, capsys):
        doc = json.loads(
            run_ok(capsys, ["gaps", "--spec", "primes", "--count", "4", "--format", "json"])
        )
        g = gap(Primes(), 3)
        assert doc["gaps"][3] == {
            "n": 3,
            "start": g.start,
            "length": g.length,
            "elements": list(g.elements),
        }


class TestGapsumCommand:
    def test_primes_golden(self, capsys):
        out = run_ok(capsys, ["gapsum", "--spec", "primes", "--count", "5"])
        assert out.strip() == "0 4 6 27 12"
        assert out.split() == [str(gap_sum(Primes(), n)) for n in range(5)]

    def test_signed_variant(self, capsys):
        out = run_ok(
            capsys, ["gapsum", "--spec", "horadam:0,1,1,2,1", "--count", "5", "--signed"]
        )
        spec = Horadam(0, 1, 1, 2, shift=1)
        assert out.split() == [str(gap_sum_signed(spec, n)) for n in range(5)]
        assert out.split()[0] == "-1"

    def test_abs_variant(self, capsys):
        out = run_ok(capsys, ["gapsum", "--spec", "fold", "--count", "7", "--abs"])
        assert out.split() == [str(gap_sum_abs(Fold(), n)) for n in range(7)]

    def test_signed_and_abs_conflict(self, capsys):
        assert run(["gapsum", "--spec", "primes", "--count", "3", "--signed", "--abs"]) == 2


class TestGapprodCommand:
    def test_linear_golden(self, capsys):
        out = run_ok(capsys, ["gapprod", "--spec", "linear:3,1", "--count", "3"])
        assert out.strip() == "6 30 72"
        assert out.split() == [str(gap_product(Linear(3, 1), n)) for n in range(3)]

    def test_long_gap_through_zero(self, capsys):
        argv = ["gapprod", "--spec", "horadam:-200000,200000,1,1", "--count", "1"]
        assert run_ok(capsys, argv) == "0\n"


class TestGfCommand:
    def test_gapsum_expansion_golden(self, capsys):
        out = run_ok(
            capsys, ["gf", "--horadam", "1,2,2,2", "--gapsum", "--expand", "7"]
        )
        lines = out.strip().splitlines()
        f = horadam_gf(Horadam(1, 2, 2, 2), "gapsum")
        assert lines[0] == ratfunc_to_text(f)
        assert lines[1].split() == [str(v) for v in f.expand(7)]
        assert lines[1] == "0 12 99 810 6150 46368 347004"

    def test_square_mode(self, capsys):
        out = run_ok(capsys, ["gf", "--horadam", "1,3,1,2", "--square"])
        assert out.strip() == ratfunc_to_text(horadam_gf(Horadam(1, 3, 1, 2), "square"))

    def test_default_is_plain(self, capsys):
        out = run_ok(capsys, ["gf", "--horadam", "0,1,1,1"])
        assert out.strip() == "(x) / (1 - x - x^2)"

    def test_kind_flags_are_the_gf_kinds(self):
        gf = _subparsers(cli.build_parser("gf"))["gf"]
        flags = [a.option_strings for a in gf._actions if a.dest == "kind"]
        assert flags == [[f"--{kind}"] for kind in GF_KINDS]

    def test_json_document(self, capsys):
        doc = json.loads(
            run_ok(
                capsys,
                ["gf", "--horadam", "1,1,1,2", "--gapsum", "--expand", "5",
                 "--format", "json"],
            )
        )
        f = horadam_gf(Horadam(1, 1, 1, 2), "gapsum")
        assert doc["text"] == ratfunc_to_text(f)
        assert doc["expansion"] == [int(v) for v in f.expand(5)]

    def test_csv_requires_expand(self, capsys):
        assert run(["gf", "--horadam", "1,1,1,1", "--format", "csv"]) == 2

    def test_negative_list_joined_with_equals(self, capsys):
        out = run_ok(capsys, ["gf", "--horadam=-1,2,1,1"])
        assert out == "(-1 + 3x) / (1 - x - x^2)\n"
        # Apart, argparse reads the list as an option.
        assert run(["gf", "--horadam", "-1,2,1,1"]) == 2

    @pytest.mark.parametrize("command,flags", [
        ("gf", ["--horadam"]),
        ("expand", ["--num", "--den"]),
        ("check-identity", ["--fc", "--raney"]),
    ])
    def test_list_help_says_join_with_equals(self, capsys, command, flags):
        assert run([command, "--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        for flag in flags:
            assert f"joined with '=', as in {flag}=-1,..." in out


class TestExpandCommand:
    def test_golden(self, capsys):
        out = run_ok(
            capsys, ["expand", "--num", "0,3", "--den", "1,-6,8", "--count", "5"]
        )
        f = ratfunc((0, 3), (1, -6, 8))
        assert out.split() == [str(v) for v in f.expand(5)]

    def test_rational_coefficients(self, capsys):
        out = run_ok(
            capsys, ["expand", "--num", "1/2", "--den", "1,-1", "--count", "3"]
        )
        assert out.split() == ["1/2", "1/2", "1/2"]

    def test_origin_pole_is_usage_error(self, capsys):
        assert run(["expand", "--num", "1", "--den", "0,1", "--count", "3"]) == 2


class TestScalarCommands:
    def test_fc_golden(self, capsys):
        out = run_ok(capsys, ["fc", "--p", "2", "--m", "3"])
        assert out.strip() == str(fuss_catalan(2, 3)) == "12"

    def test_raney_golden(self, capsys):
        out = run_ok(capsys, ["raney", "--p", "2", "--r", "2", "--n", "2"])
        assert out.strip() == str(raney(2, 2, 2)) == "5"

    def test_raney_zero_outside_range(self, capsys):
        out = run_ok(capsys, ["raney", "--p", "0", "--r", "2", "--n", "3"])
        assert out.strip() == str(raney(0, 2, 3)) == "0"

    def test_fc_json(self, capsys):
        doc = json.loads(run_ok(capsys, ["fc", "--p", "1", "--m", "3", "--format", "json"]))
        assert doc == {"command": "fc", "p": 1, "m": 3, "value": 5}


class TestCheckIdentity:
    def test_fc_identity_exit_zero(self, capsys):
        out = run_ok(capsys, ["check-identity", "--fc", "3,2"])
        assert "holds" in out

    def test_raney_identity_exit_zero(self, capsys):
        out = run_ok(capsys, ["check-identity", "--raney", "2,2,1"])
        assert "holds" in out

    def test_failed_identity_exit_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "fc_identity_sides", lambda k, n: (30, 31))
        assert run(["check-identity", "--fc", "3,2"]) == 1
        assert "FAILS" in capsys.readouterr().out

    def test_requires_one_identity(self, capsys):
        assert run(["check-identity"]) == 2

    @pytest.mark.parametrize("flags", [["--fc", "2,-1"], ["--raney", "3,2,-1"]])
    def test_negative_n_is_a_usage_error(self, capsys, flags):
        assert run(["check-identity", *flags]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "gapseq: error: sequence index must be >= 0, got -1\n")


class TestTableCommand:
    @pytest.mark.parametrize("name", ["figurate", "fc", "raney", "horadam"])
    def test_tables_render(self, capsys, name):
        out = run_ok(capsys, ["table", name])
        assert "corrections:" in out

    def test_figurate_flags_pentagonal(self, capsys):
        out = run_ok(capsys, ["table", "figurate"])
        assert "n(3n-1)/2" in out

    def test_fc_flags_4n1_cell(self, capsys):
        out = run_ok(capsys, ["table", "fc"])
        assert "published 6840, recomputed 3360" in out

    def test_raney_flags_136(self, capsys):
        out = run_ok(capsys, ["table", "raney"])
        assert "published 136, recomputed 132" in out

    def test_json(self, capsys):
        docs = json.loads(run_ok(capsys, ["table", "horadam", "--format", "json"]))
        assert len(docs) == 1
        assert docs[0]["title"] == "Horadam gap-sum generating functions"
        assert len(docs[0]["rows"]) == 5

    def test_unknown_table(self, capsys):
        assert run(["table", "nonsense"]) == 2


class TestCheckOeis:
    def test_match_exit_zero(self, capsys):
        out = run_ok(
            capsys,
            ["check-oeis", "--spec", "primes", "--kind", "gapsum", "--id", "A054265",
             "--bfile", str(FIXTURES / "b054265.txt")],
        )
        assert "matched shift=0" in out

    def test_terms_kind(self, capsys):
        out = run_ok(
            capsys,
            ["check-oeis", "--spec", "poly:0,1/2,1/2", "--kind", "terms",
             "--id", "A000217", "--bfile", str(FIXTURES / "b000217.txt")],
        )
        assert "matched" in out

    def test_mismatch_exit_one(self, tmp_path, capsys):
        corrupted = (FIXTURES / "b054265.txt").read_text().replace("4 27", "4 28")
        path = tmp_path / "b054265.txt"
        path.write_text(corrupted)
        rc = run(
            ["check-oeis", "--spec", "primes", "--kind", "gapsum", "--id", "A054265",
             "--bfile", str(path)]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "MISMATCH at index 4" in captured.out

    def test_json_report(self, capsys):
        doc = json.loads(
            run_ok(
                capsys,
                ["check-oeis", "--spec", "fib", "--kind", "gapsum", "--id", "A109454",
                 "--bfile", str(FIXTURES / "b109454.txt"), "--format", "json"],
            )
        )
        assert doc["matched"] is True
        assert doc["shift"] == 0

    def test_fetch_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GAPSEQ_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(
            oeis, "_http_get", lambda url: (FIXTURES / "b103897.txt").read_bytes()
        )
        out = run_ok(
            capsys,
            ["check-oeis", "--spec", "geom:2", "--kind", "gapsum", "--id", "A103897",
             "--fetch"],
        )
        assert "matched shift=0" in out
        assert (tmp_path / "b103897.txt").exists()

    def test_empty_download_is_fetched_again(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GAPSEQ_CACHE_DIR", str(tmp_path))
        calls = []
        monkeypatch.setattr(oeis, "_http_get", lambda url: calls.append(url) or b"")
        argv = ["check-oeis", "--spec", "fib", "--kind", "terms", "--id", "A000045", "--fetch"]
        for _ in range(2):
            assert run(argv) == 1
            assert "has no entries" in capsys.readouterr().err
        assert len(calls) == 2
        assert not (tmp_path / "b000045.txt").exists()

    def test_fetch_network_down_exit_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GAPSEQ_CACHE_DIR", str(tmp_path))

        def down(url):
            raise oeis.FetchError("network unavailable for test")

        monkeypatch.setattr(oeis, "_http_get", down)
        rc = run(
            ["check-oeis", "--spec", "fib", "--kind", "gapsum", "--id", "A109454",
             "--fetch"]
        )
        assert rc == 1
        assert "network unavailable" in capsys.readouterr().err

    def test_missing_bfile_exit_one(self, capsys):
        rc = run(
            ["check-oeis", "--spec", "fib", "--kind", "gapsum", "--id", "A109454",
             "--bfile", "/no/such/file"]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("gapseq: error: [Errno 2] ")

    def test_bad_id_usage_error(self, capsys):
        rc = run(
            ["check-oeis", "--spec", "fib", "--kind", "gapsum", "--id", "A1",
             "--bfile", "x"]
        )
        assert rc == 2

    def test_non_ascii_digits_in_id_usage_error(self, capsys):
        rc = run(
            ["check-oeis", "--spec", "fib", "--kind", "terms", "--id", ARABIC_INDIC_ID,
             "--bfile", str(FIXTURES / "b054265.txt")]
        )
        assert rc == 2
        assert "expected 'A' + 6 digits" in capsys.readouterr().err

    def test_non_utf8_bfile_is_a_bfile_error(self, tmp_path, capsys):
        path = tmp_path / "b000040.txt"
        path.write_bytes(b"# caf\xe9 (one Latin-1 byte)\n1 2\n2 3\n3 5\n4 7\n")
        rc = run(
            ["check-oeis", "--spec", "primes", "--kind", "terms", "--id", "A000040",
             "--bfile", str(path)]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("gapseq: error: line 1:")
        assert "spec grammar" not in captured.err

    @pytest.mark.parametrize("first_line", [b"# A000045\n", b""])
    def test_bfile_with_byte_order_mark(self, tmp_path, capsys, first_line):
        path = tmp_path / "b000045.txt"
        path.write_bytes(b"\xef\xbb\xbf" + first_line + b"0 0\n1 1\n2 1\n3 2\n4 3\n")
        out = run_ok(
            capsys,
            ["check-oeis", "--spec", "fib", "--kind", "terms", "--id", "A000045",
             "--bfile", str(path)],
        )
        assert out == "A000045: matched shift=0 compared=5\n"

    @pytest.mark.parametrize("content", [b"", b"# comments only\n\n"])
    def test_empty_bfile_is_a_bfile_error(self, tmp_path, capsys, content):
        path = tmp_path / "b000045.txt"
        path.write_bytes(content)
        rc = run(
            ["check-oeis", "--spec", "fib", "--kind", "terms", "--id", "A000045",
             "--bfile", str(path)]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == "gapseq: error: b-file A000045 has no entries\n"

    @pytest.mark.parametrize("end, bad_line, rc, out, err", [
        (b"\n", None, 0, "A001477: matched shift=0 compared=200000\n", ""),
        (b"\r\n", None, 0, "A001477: matched shift=0 compared=200000\n", ""),
        # A row of three fields past many blocks parsed in bulk names its own line.
        (b"\n", 150001, 1, "", "gapseq: error: line 150001: expected '<index> <value>', "
                                "got '149999 149999 0'\n"),
    ], ids=["lf", "crlf", "bad-row"])
    def test_long_bfile(self, tmp_path, capsys, end, bad_line, rc, out, err):
        """200000 rows, about 40 parse blocks, under a comment line."""
        lines = [b"# n n", *(b"%d %d" % (n, n) for n in range(200000))]
        if bad_line is not None:
            lines[bad_line - 1] += b" 0"
        path = tmp_path / "b001477.txt"
        path.write_bytes(end.join(lines) + end)
        got = run(["check-oeis", "--spec", "linear:1,0", "--kind", "terms", "--id", "A001477",
                   "--bfile", str(path)])
        captured = capsys.readouterr()
        assert (got, captured.out, captured.err) == (rc, out, err)

    def test_max_shift_zero_rejects_offset(self, capsys):
        tail_spec = "explicit:4,13,42,119"
        rc = run(
            ["check-oeis", "--spec", tail_spec, "--kind", "terms", "--id", "A109454",
             "--bfile", str(FIXTURES / "b109454.txt"), "--max-shift", "0"]
        )
        assert rc == 1
        rc = run(
            ["check-oeis", "--spec", tail_spec, "--kind", "terms", "--id", "A109454",
             "--bfile", str(FIXTURES / "b109454.txt"), "--max-shift", "4"]
        )
        assert rc == 0


def _without_digit_limit(func, *args):
    """func(*args) with Python's int/str digit limit lifted (3.11+)."""
    with int_digit_limit(0):
        return func(*args)


class TestOutputBeyond4300Digits:
    """Results longer than Python's default int/str limit print in full."""

    GEOM2_PRODUCTS = [gap_product(Geometric(2), n) for n in range(12)]

    def _run(self, capsys, argv):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        out = run_ok(capsys, argv)
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        return out

    def test_gapprod_text(self, capsys):
        out = self._run(capsys, ["gapprod", "--spec", "geom:2", "--count", "12"])
        assert _without_digit_limit(lambda: [int(v) for v in out.split()]) == (
            self.GEOM2_PRODUCTS
        )
        assert len(out.split()[-1]) > 4300

    def test_gapprod_csv(self, capsys):
        out = self._run(
            capsys, ["gapprod", "--spec", "geom:2", "--count", "12", "--format", "csv"]
        )
        lines = out.splitlines()
        assert lines[0] == "n,value"
        rows = _without_digit_limit(
            lambda: [tuple(int(f) for f in line.split(",")) for line in lines[1:]]
        )
        assert rows == list(enumerate(self.GEOM2_PRODUCTS))

    def test_gapprod_json(self, capsys):
        out = self._run(
            capsys, ["gapprod", "--spec", "geom:2", "--count", "12", "--format", "json"]
        )
        assert _without_digit_limit(json.loads, out)["values"] == self.GEOM2_PRODUCTS

    def test_fc_text_and_json(self, capsys):
        want = math.comb(40000, 20000) // 20001
        out = self._run(capsys, ["fc", "--p", "1", "--m", "20000"])
        assert _without_digit_limit(int, out) == want
        out = self._run(capsys, ["fc", "--p", "1", "--m", "20000", "--format", "json"])
        assert _without_digit_limit(json.loads, out)["value"] == want

    def test_check_oeis_bfile_with_long_values(self, tmp_path, capsys):
        values = self.GEOM2_PRODUCTS
        text = _without_digit_limit(
            lambda: "".join(f"{n} {v}\n" for n, v in enumerate(values))
        )
        path = tmp_path / "b999999.txt"
        path.write_text(text)
        out = self._run(
            capsys,
            ["check-oeis", "--spec", "geom:2", "--kind", "gapprod", "--id", "A999999",
             "--bfile", str(path), "--count", "12"],
        )
        assert out == "A999999: matched shift=0 compared=12\n"


class TestDigitLimit:
    """Output and b-file input are exact without gapseq ever changing the
    interpreter's int/str digit limit, and the same under every limit."""

    PRODUCTS = [gap_product(Geometric(2), n) for n in range(12)]

    def _texts(self, values):
        with int_digit_limit(0):
            return [str(v) for v in values]

    def _mismatch_bfile(self, tmp_path):
        """The products as a b-file, the last replaced by 5000 sevens."""
        lines = [f"{n} {t}" for n, t in enumerate(self._texts(self.PRODUCTS[:11]))]
        path = tmp_path / "b999999.txt"
        path.write_text("\n".join(lines + ["11 " + "7" * 5000]) + "\n")
        return path

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_long_output_leaves_the_limit_alone(self, capsys, limit_untouched, fmt):
        texts = self._texts(self.PRODUCTS)
        want = {
            "text": " ".join(texts) + "\n",
            "csv": "n,value\n" + "".join(f"{n},{t}\n" for n, t in enumerate(texts)),
            "json": '{"command": "gapprod", "spec": "geom:2", "values": ['
                    + ", ".join(texts) + '], "start": 0}\n',
        }[fmt]
        argv = ["gapprod", "--spec", "geom:2", "--count", "12", "--format", fmt]
        assert run_ok(capsys, argv) == want
        assert len(texts[-1]) > 4300

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_long_mismatch_report_leaves_the_limit_alone(self, capsys, tmp_path, limit_untouched,
                                                         fmt):
        got = self._texts(self.PRODUCTS)[11]
        argv = ["check-oeis", "--spec", "geom:2", "--kind", "gapprod", "--id", "A999999",
                "--bfile", str(self._mismatch_bfile(tmp_path)), "--count", "12", "--format", fmt]
        assert run(argv) == 1
        want = {
            "text": f"A999999: MISMATCH at index 11: b-file has {'7' * 5000}, computed {got} "
                    "(best shift 0)\n",
            "json": '{"command": "check-oeis", "id": "A999999", "spec": "geom:2", "kind": '
                    '"gapprod", "matched": false, "shift": 0, "compared": 12, "first_mismatch": '
                    f'{{"index": 11, "expected": {"7" * 5000}, "got": {got}}}}}\n',
        }[fmt]
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_lifted_limit_prints_long_ints_through_decimal(self, capsys, monkeypatch, fmt):
        """The same bytes under a lifted limit, and the route: the products of
        more than 64 integers (n >= 7) are Decimal products over leaves of at
        most _DIRECT_BITS bits, and no whole product goes through to_decimal."""
        argv = ["gapprod", "--spec", "geom:2", "--count", "12", "--format", fmt]
        want = run_ok(capsys, argv)
        whole, leaves, to_decimal = [], [], _decimal.to_decimal
        monkeypatch.setattr(_decimal, "to_decimal", lambda n: whole.append(n) or to_decimal(n))
        monkeypatch.setattr(gaps, "to_decimal", lambda n: leaves.append(n) or to_decimal(n))
        with int_digit_limit(0):
            assert run_ok(capsys, argv) == want
        assert whole == []
        assert max(map(int.bit_length, leaves)) <= _decimal._DIRECT_BITS
        assert math.prod(leaves) == math.prod(self.PRODUCTS[7:])

    @pytest.mark.parametrize("argv", [
        ["gapprod", "--spec", "geom:2", "--count", "12", "--format", "text"],
        ["gapprod", "--spec", "geom:2", "--count", "12", "--format", "csv"],
        ["gapprod", "--spec", "geom:2", "--count", "12", "--format", "json"],
        ["terms", "--spec", "poly:0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"
         "0,0,0,0,0,0,0,0,0,0,0," + "7" * 600, "--count", "300", "--format", "csv"],
        ["gaps", "--spec", "geom:1" + "0" * 600, "--count", "9", "--format", "csv"],
        ["gaps", "--spec", "horadam:0,-1,1" + "0" * 600 + ",0", "--count", "9",
         "--format", "json"],
        ["fc", "--p", "1", "--m", "20000", "--format", "text"],
        ["raney", "--p", "2", "--r", "3", "--n", "9000", "--format", "json"],
        ["check-identity", "--fc", "3000,2", "--format", "text"],
        ["check-identity", "--raney", "3000,2,3", "--format", "json"],
        ["gf", "--horadam", "0,1," + "9" * 600 + ",1", "--square", "--format", "json"],
        ["gf", "--horadam", "0,1," + "9" * 600 + ",1", "--square", "--format", "text"],
        ["expand", "--num", "1/3,2", "--den", "1,-" + "9" * 600 + "/7", "--count", "10",
         "--format", "json"],
    ])
    def test_same_bytes_under_the_least_limit(self, capsys, argv):
        with int_digit_limit(0):
            want = run_ok(capsys, argv)
        with int_digit_limit(640):
            assert run_ok(capsys, argv) == want
        assert max(map(len, want.replace(",", " ").split())) > 640

    def test_same_mismatch_report_under_the_least_limit(self, capsys, tmp_path):
        argv = ["check-oeis", "--spec", "geom:2", "--kind", "gapprod", "--id", "A999999",
                "--bfile", str(self._mismatch_bfile(tmp_path)), "--format", "json"]
        with int_digit_limit(0):
            assert run(argv) == 1
            want = capsys.readouterr()
        with int_digit_limit(640):
            assert run(argv) == 1
            assert capsys.readouterr() == want

    @pytest.mark.skipif(not HAS_DIGIT_LIMIT, reason="Python 3.10 has no int/str digit limit")
    @pytest.mark.parametrize("spec", ["explicit:" + "5" * 5000 + ",1", "linear:1," + "5" * 5000],
                             ids=["explicit", "linear"])
    def test_spec_numbers_past_the_limit_are_spec_errors(self, capsys, spec):
        with int_digit_limit(4300):
            assert run(["terms", "--spec", spec, "--count", "1"]) == 2
        err = capsys.readouterr().err
        assert "gapseq: error: number too long: 5000 digits, past the int/str digit limit" in err
        assert "gapseq: spec grammar:" in err

    TOO_LONG = "5" * 5000
    TOO_LONG_MESSAGE = "number too long: 5000 digits, past the int/str digit limit"
    WORD = "x" * 5000

    @pytest.mark.parametrize("argv,err", [
        (["terms", "--spec", "linear:1," + TOO_LONG, "--count", "1"],
         f"gapseq: error: {TOO_LONG_MESSAGE} (at position 9 in 'linear:1,{TOO_LONG[:31]}'... "
         f"of 5009 characters)\ngapseq: spec grammar: {cli._GRAMMAR}\n"),
        (["terms", "--spec", "poly:1e-5000", "--count", "1"],
         "gapseq: error: number too long: 5001 digits, past the int/str digit limit "
         f"(at position 5 in 'poly:1e-5000')\ngapseq: spec grammar: {cli._GRAMMAR}\n"),
        (["terms", "--spec", "fib", "--count", TOO_LONG],
         f"gapseq terms: error: argument --count: {TOO_LONG_MESSAGE}\n"),
        (["check-identity", "--fc", "3," + TOO_LONG],
         f"gapseq check-identity: error: argument --fc: {TOO_LONG_MESSAGE}\n"),
        (["expand", "--num", TOO_LONG, "--den", "1", "--count", "1"],
         f"gapseq expand: error: argument --num: {TOO_LONG_MESSAGE}\n"),
        (["check-identity", "--fc", f"3,{TOO_LONG},4"],
         "gapseq check-identity: error: argument --fc: expected 2 comma-separated integers, "
         "got 3\n"),
        (["terms", "--spec", "fib", "--count", WORD],
         f"gapseq terms: error: argument --count: expected an integer, got '{WORD[:40]}'... "
         "of 5000 characters\n"),
        (["terms", "--spec", f"linear:{WORD},1", "--count", "3"],
         f"gapseq: error: expected an integer, got '{WORD[:40]}'... of 5000 characters "
         f"(at position 7 in 'linear:{WORD[:33]}'... of 5009 characters)\n"
         f"gapseq: spec grammar: {cli._GRAMMAR}\n"),
        (["check-oeis", "--spec", "fib", "--kind", "terms", "--id", "A" + WORD, "--fetch"],
         f"gapseq check-oeis: error: argument --id: expected 'A' + 6 digits, got "
         f"'A{WORD[:39]}'... of 5001 characters\n"),
        (["terms", "--spec", "fib", "--count", "-" + "9" * 3000],
         f"gapseq terms: error: argument --count: must be >= 0, got -{'9' * 39}... "
         "of 3001 characters\n"),
    ], ids=["spec-integer", "spec-exponent", "count", "fc", "num", "fc-count", "count-text",
            "spec-text", "id", "count-negative"])
    @pytest.mark.skipif(not HAS_DIGIT_LIMIT, reason="Python 3.10 has no int/str digit limit")
    def test_numbers_past_the_limit_name_the_fault(self, capsys, argv, err):
        """One message for a number too long, wherever it stands, that
        does not echo its digits: a spec is quoted up to 40 characters, and
        a list of the wrong length by its count. Any other long text a
        message echoes is quoted up to 40 characters too, so no line of the
        message is long and none holds 100 characters of an argument."""
        with int_digit_limit(4300):
            assert run(argv) == 2
        got = capsys.readouterr().err
        assert got.endswith(err)
        assert max(len(line.encode()) for line in got.splitlines()) < 300
        assert not any(a[i:i + 100] in got for a in argv for i in range(len(a) - 99))

    EXPONENT_ARGVS = [
        *(["terms", "--spec", f"poly:{c}", "--count", "1"]
          for c in ("1e999999999", "1e-999999999", "2,1E999999999")),
        *(["expand", f"--num={num}", f"--den={den}", "--count", "1"]
          for num, den in (("1e999999999", "1"), ("1e-999999999", "1"), ("1", "1,1e999999999"),
                           ("1", "1e-999999999"))),
    ]

    def test_exponents_past_the_limit_are_refused_at_once(self):
        """Fraction computes 10**exponent before any digit limit applies:
        1e999999999 would seem to hang. The limit is lifted here, so the
        bound is 4300 digits."""
        codes = TestColdStart._python(
            "import io, json, sys\n"
            "from gapseq.cli import run\n"
            "getattr(sys, 'set_int_max_str_digits', int)(0)\n"
            "sys.stderr = io.StringIO()\n"
            f"print(json.dumps([run(argv) for argv in {self.EXPONENT_ARGVS!r}]))\n"
        )
        assert codes == [2] * len(self.EXPONENT_ARGVS)

    def test_exponent_error_keeps_the_position_and_the_grammar(self, capsys):
        with int_digit_limit(4300):
            assert run(["terms", "--spec", "poly:2, 1e-5000", "--count", "1"]) == 2
        err = capsys.readouterr().err
        assert ("gapseq: error: number too long: 5001 digits, past the int/str digit limit "
                "(at position 7 in 'poly:2, 1e-5000')\n") in err
        assert "gapseq: spec grammar:" in err

    @pytest.mark.parametrize("limit", [0, 640, 4300])
    def test_exponents_within_the_limit_parse(self, limit):
        half = Fraction(1, 2)
        coefficients = cli._numbers(cli._rational)  # the type of expand --num and --den
        with int_digit_limit(limit):
            assert parse_spec("poly:1e400,0.5,5E-1") == Polynomial((10**400, half, half))
            assert coefficients("0.5, 1e400,-25e-1") == (half, 10**400, Fraction(-5, 2))
            # 4300 digits where the limit is lifted: 10**(digits - 1) is the longest power.
            digits = limit or 4300 if HAS_DIGIT_LIMIT else 4300
            assert coefficients(f"1e{digits - 1}") == (10 ** (digits - 1),)
            with pytest.raises(argparse.ArgumentTypeError, match="^number too long: "):
                coefficients(f"1e{digits}")


class TestInputTooLarge:
    """An input too large to compute fails with one error line and exit 1."""

    @pytest.mark.parametrize("spec", ["primes", "fold"])
    def test_index_past_any_table(self, capsys, spec):
        # 10**20 overflows the table's size before anything is allocated.
        assert run(["terms", "--spec", spec, "--from", str(10**20), "--count", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("gapseq: error: input too large: "
                                "cannot fit 'int' into an index-sized integer\n")

    def test_memory_error(self, capsys, monkeypatch):
        def exhausted(ns):
            raise MemoryError

        help_, _, *adders = cli._COMMANDS["terms"]
        monkeypatch.setitem(cli._COMMANDS, "terms", (help_, exhausted, *adders))
        assert run(["terms", "--spec", "fib", "--count", "3"]) == 1
        assert capsys.readouterr() == ("", "gapseq: error: input too large: MemoryError\n")


class TestUsageErrors:
    def test_bad_spec_exit_two(self, capsys):
        assert run(["gapsum", "--spec", "linear:3;1", "--count", "5"]) == 2
        err = capsys.readouterr().err
        assert "gapseq: error:" in err
        assert "spec grammar" in err

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_missing_required(self, capsys):
        assert run(["terms", "--spec", "fib"]) == 2

    def test_negative_count(self, capsys):
        assert run(["terms", "--spec", "fib", "--count", "-1"]) == 2

    def test_explicit_overrun_exit_two(self, capsys):
        assert run(["terms", "--spec", "explicit:1,2", "--count", "5"]) == 2

    def test_no_arguments(self, capsys):
        assert run([]) == 2

    def test_csv_rejected_for_non_tabular(self, capsys):
        assert run(["fc", "--p", "1", "--m", "3", "--format", "csv"]) == 2
        assert run(["check-identity", "--fc", "3,2", "--format", "csv"]) == 2
        assert run(["table", "figurate", "--format", "csv"]) == 2

    def test_csv_rejected_by_the_parser(self, capsys):
        for argv in (
            ["raney", "--p", "2", "--r", "2", "--n", "2"],
            ["check-oeis", "--spec", "fib", "--kind", "terms", "--id", "A000045",
             "--bfile", str(FIXTURES / "b109454.txt")],
        ):
            assert run([*argv, "--format", "csv"]) == 2
            err = capsys.readouterr().err
            assert "invalid choice: 'csv'" in err
            assert "spec grammar" not in err

    def test_explicit_overrun_shows_no_grammar(self, capsys):
        assert run(["gapsum", "--spec", "explicit:1,5", "--count", "3"]) == 2
        err = capsys.readouterr().err
        assert "index 2 is out of range" in err
        assert "spec grammar" not in err

    def test_count_zero_check_shows_no_grammar(self, capsys):
        rc = run(
            ["check-oeis", "--spec", "fib", "--kind", "terms", "--id", "A000045",
             "--bfile", str(FIXTURES / "b109454.txt"), "--count", "0"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "no values to check" in err
        assert "spec grammar" not in err

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0

    def test_poly_without_coefficients(self, capsys):
        assert run(["terms", "--spec", "poly:", "--count", "3"]) == 2
        assert capsys.readouterr().err == (
            "gapseq: error: poly needs at least one coefficient (at position 5 in 'poly:')\n"
            f"gapseq: spec grammar: {cli._GRAMMAR}\n"
        )

    @pytest.mark.parametrize("argv,message", [
        (["raney", "--p", "1", "--r", "0", "--n", "1"],
         "gapseq raney: error: argument --r: must be >= 1, got 0"),
        (["check-identity", "--fc", "3,x"],
         "gapseq check-identity: error: argument --fc: expected an integer, got 'x'"),
        (["expand", "--num", "1,x", "--den", "1", "--count", "3"],
         "gapseq expand: error: argument --num: expected a rational, got 'x'"),
        (["terms", "--spec", "fib", "--count", "x"],
         "gapseq terms: error: argument --count: expected an integer, got 'x'"),
    ])
    def test_argument_type_errors(self, capsys, argv, message):
        assert run(argv) == 2
        assert capsys.readouterr().err.splitlines()[-1] == message


class TestEmitIndexed:
    VALUES = [
        [],
        [7],
        [*range(-5, 3000), 10**5000, Fraction(-1, 3), Decimal(10) ** 700],
    ]

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize("values", VALUES, ids=["empty", "one", "many"])
    def test_generator_writes_the_same_bytes_as_a_list(self, capsys, fmt, values):
        ns = argparse.Namespace(format=fmt)
        cli._emit_indexed(ns, {"command": "terms"}, values, 3)
        want = capsys.readouterr().out
        cli._emit_indexed(ns, {"command": "terms"}, (v for v in values), 3)
        assert capsys.readouterr().out == want
        if fmt == "csv":
            assert want.count("\n") == len(values) + 1

    def test_short_ints_are_written_by_str(self, capsys, monkeypatch):
        # The route, not only the bytes: under the default digit limit the
        # exact renderer never sees a run of short ints.
        def refuse(v):
            raise AssertionError(f"show({v!r}) was called")

        monkeypatch.setattr(cli, "show", refuse)
        with int_digit_limit(4300):
            cli._write_joined(range(-5000, 5000), " ")
        assert capsys.readouterr().out == " ".join(map(str, range(-5000, 5000)))


class ByteCounter:
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


class TestPrintedRunsStream:
    """A printed run goes from the run to the writer as it is made: no list
    of its values is built, so the peak does not grow with --count. The
    primes and the fold walk read tables that grow by design, and are left out."""

    # argv with N for the count, and the smaller count; each run at ten
    # times it held 3.7 to 5.4 MiB more at its peak while it built a list.
    CASES = [
        (["terms", "--spec", "fib", "--count", "N"], 1000),
        (["gapsum", "--spec", "linear:3,1", "--count", "N", "--format", "json"], 10000),
        (["gapsum", "--spec", "geom:2,-50", "--signed", "--count", "N", "--format", "csv"], 500),
        (["gapprod", "--spec", "linear:3,1", "--count", "N"], 10000),
        (["gaps", "--spec", "binom:5,3", "--count", "N", "--format", "csv"], 3000),
        (["expand", "--num", "1", "--den", "1,-1,-1", "--count", "N"], 1000),
        (["gf", "--horadam", "1,1,1,1", "--expand", "N", "--format", "json"], 1000),
    ]
    # A few of the writer's batches of about 64 KiB of text.
    MARGIN = 3 * 2**19

    @staticmethod
    def _peak(monkeypatch, argv, count):
        monkeypatch.setattr(sys, "stdout", ByteCounter())
        tracemalloc.start()
        try:
            assert run([str(count) if a == "N" else a for a in argv]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    @pytest.mark.parametrize("argv, n", CASES, ids=[" ".join(a[:3]) for a, _ in CASES])
    def test_peak_does_not_grow_with_the_count(self, monkeypatch, argv, n):
        self._peak(monkeypatch, argv, 10)  # the parser's imports and the caches, once
        small = self._peak(monkeypatch, argv, n)
        assert self._peak(monkeypatch, argv, 10 * n) < small + self.MARGIN

    def test_fault_after_output_has_begun(self, capsys, monkeypatch):
        """A MemoryError at gap 500, after the first batches are written,
        still ends in the one error line and exit 1; what was written is a
        prefix of the full output."""
        argv = ["gapprod", "--spec", "linear:3,1", "--count", "100000"]
        full = run_ok(capsys, argv)
        real, gaps_made = cli._printed_product_between, []

        def exhausted_at_gap_500(a, b):
            if len(gaps_made) == 500:
                raise MemoryError
            gaps_made.append(a)
            return real(a, b)

        monkeypatch.setattr(cli, "_printed_product_between", exhausted_at_gap_500)
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert err == "gapseq: error: input too large: MemoryError\n"
        assert out and full.startswith(out)


class TestEntryPoint:
    """``python -m gapseq.cli`` goes through main(), which exits with run()'s code."""

    @staticmethod
    def _env():
        src = Path(gapseq.__file__).resolve().parent.parent
        return dict(os.environ, PYTHONPATH=str(src))

    @classmethod
    def _main(cls, *argv):
        return subprocess.run(
            [sys.executable, "-m", "gapseq.cli", *argv],
            capture_output=True,
            text=True,
            env=cls._env(),
            timeout=60,
        )

    def test_exit_zero(self):
        proc = self._main("terms", "--spec", "fib", "--count", "8")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 1 1 2 3 5 8 13\n", "")

    def test_mismatch_exits_one(self):
        proc = self._main(
            "check-oeis", "--spec", "fib", "--kind", "gapprod", "--id", "A109454",
            "--bfile", str(FIXTURES / "b109454.txt"),
        )
        assert proc.returncode == 1
        assert proc.stdout.startswith("A109454: MISMATCH at index 1:")

    def test_bad_spec_exits_two_with_grammar(self):
        proc = self._main("terms", "--spec", "linear:3;1", "--count", "5")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"gapseq: spec grammar: {cli._GRAMMAR}\n" in proc.stderr

    def test_closed_stdout_exits_one_quietly(self):
        # About 2 MB of output: far more than a pipe holds, so writes fail once
        # the reader has gone, as with `gapseq terms ... | head -c 20`.
        with subprocess.Popen(
            [sys.executable, "-m", "gapseq.cli", "terms", "--spec", "linear:1,0",
             "--count", "300000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self._env(),
        ) as proc:
            assert proc.stdout.read(20) == b"0 1 2 3 4 5 6 7 8 9 "
            proc.stdout.close()
            assert proc.wait(timeout=60) == 1
            assert proc.stderr.read() == b""


# Valid argument lists for each subcommand, after its name.
_VALID_ARGS = {
    "terms": [["--spec", "fib", "--count", "3"],
              ["--spec", "fib", "--count", "3", "--from", "2", "--format", "csv"]],
    "gaps": [["--spec", "primes", "--count", "4", "--format", "json"]],
    "gapsum": [["--spec", "fold", "--count", "3"], ["--spec", "fib", "--count", "3", "--signed"],
               ["--abs", "--spec", "fib", "--count", "3"]],
    "gapprod": [["--spec", "linear:3,1", "--count", "6", "--format", "text"]],
    "gf": [["--horadam", "1,1,1,1"],
           ["--horadam", "2,1,1,1", "--square-shift", "--expand", "5", "--format", "csv"]],
    "expand": [["--num", "1/2,1", "--den", "1,-1/3", "--count", "6"]],
    "fc": [["--p", "3", "--m", "4", "--format", "json"]],
    "raney": [["--p", "3", "--r", "2", "--n", "4"]],
    "check-identity": [["--fc", "3,4"], ["--raney", "3,2,4", "--format", "json"]],
    "table": [["figurate"], ["raney", "--format", "json"]],
    "check-oeis": [["--spec", "fib", "--kind", "terms", "--id", "A000045", "--fetch"],
                   ["--spec", "fib", "--kind", "gapsum", "--id", "A000045", "--bfile", "b.txt",
                    "--max-shift", "2", "--count", "5"]],
}

_USAGE_ERRORS = [
    ["terms", "--spec", "fib"],
    ["fc", "--p", "1", "--m", "2", "--format", "csv"],
    ["gapsum", "--spec", "fib", "--count", "3", "--signed", "--abs"],
    ["terms", "--spec", "fib", "--count", "3", "extra"],
    ["terms", "--spec", "fib", "--count", "-1"],
    ["gf", "--horadam", "1,2"],
    ["check-identity"],
    ["table", "nope"],
    ["check-oeis", "--spec", "fib", "--kind", "terms", "--id", "A000045", "--fetch",
     "--bfile", "b.txt"],
]


def _subparsers(parser):
    """The subcommand parsers of parser, by name."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


class TestOneCommandParser:
    """build_parser(name), which run uses when argv starts with name, parses
    and reports exactly as the parser of every subcommand does."""

    def test_every_command_has_cases(self):
        assert set(_VALID_ARGS) == set(cli._COMMANDS)

    @pytest.mark.parametrize("name", sorted(cli._COMMANDS))
    def test_builds_only_its_own_subparser(self, name):
        assert list(_subparsers(cli.build_parser(name))) == [name]

    @pytest.mark.parametrize("name", sorted(cli._COMMANDS))
    def test_same_help(self, name):
        one, full = cli.build_parser(name), cli.build_parser()
        assert one.format_usage() == full.format_usage()
        assert _subparsers(one)[name].format_help() == _subparsers(full)[name].format_help()

    @pytest.mark.parametrize(
        "argv", [[name, *args] for name, cases in _VALID_ARGS.items() for args in cases]
    )
    def test_same_namespace(self, argv):
        ns = cli.build_parser(argv[0]).parse_args(argv)
        assert vars(ns) == vars(cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", _USAGE_ERRORS)
    def test_same_usage_error(self, capsys, argv):
        reports = []
        for parser in (cli.build_parser(argv[0]), cli.build_parser()):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            reports.append((exc.value.code, capsys.readouterr()))
        assert reports[0] == reports[1]
        code, captured = reports[0]
        assert (code, captured.out) == (2, "")
        assert "error: " in captured.err

    def test_trailing_argument_is_reported_by_the_top_level(self, capsys):
        assert run(["terms", "--spec", "fib", "--count", "3", "extra"]) == 2
        assert capsys.readouterr().err == (
            "usage: gapseq [-h] command ...\n"
            "gapseq: error: unrecognized arguments: extra\n"
        )

    def test_help_lists_every_command(self, capsys):
        assert run(["--help"]) == 0
        out = capsys.readouterr().out
        for name in cli._COMMANDS:
            assert re.search(rf"^    {re.escape(name)}( |$)", out, re.MULTILINE), name

    def test_unknown_command_lists_every_command(self, capsys):
        assert run(["frobnicate"]) == 2
        assert str(tuple(cli._COMMANDS))[1:-1] in capsys.readouterr().err

    def test_run_without_argv_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["gapseq", "fc", "--p", "2", "--m", "3"])
        assert run() == 0
        assert capsys.readouterr().out == f"{fuss_catalan(2, 3)}\n"
        monkeypatch.setattr(sys, "argv", ["gapseq", "table", "--help"])
        assert run() == 0
        assert capsys.readouterr().out.startswith("usage: gapseq table ")
        monkeypatch.setattr(sys, "argv", ["gapseq"])
        assert run() == 2

    def test_one_command_builds_two_parsers(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run(["table", "fc"]) == 0
        assert len(built) <= 2, built


class TestColdStart:
    """What importing the CLI loads, each case in a fresh interpreter.

    ``-S`` keeps site hooks out, so the interpreter starts with the
    bare minimum and every other module it holds was imported by gapseq.
    """

    NETWORK = ("urllib.request", "http.client", "ssl", "email")

    @staticmethod
    def _python(script):
        src = Path(gapseq.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_import_loads_no_network_stack(self):
        loaded = self._python(
            "import sys\n"
            "import gapseq\n"
            "pkg = sorted(sys.modules)\n"
            "import gapseq.cli\n"
            "import json\n"
            "print(json.dumps([pkg, sorted(sys.modules)]))\n"
        )
        for modules in loaded:
            assert not set(self.NETWORK) & set(modules)

    @classmethod
    def _loaded_by_import(cls):
        return set(cls._python(
            "import sys\n"
            "import gapseq, gapseq.cli\n"
            "loaded = sorted(sys.modules)\n"
            "import json\n"
            "print(json.dumps(loaded))\n"
        ))

    def test_import_loads_no_dataclasses_or_inspect(self):
        """Records are built without code generation, so importing the CLI
        pulls in neither dataclasses nor what it imports (inspect, ast, dis)."""
        assert not {"dataclasses", "inspect"} & self._loaded_by_import()

    def test_import_loads_only_what_a_run_uses(self):
        """Annotations are never evaluated, the locks come from _thread and
        pathlib loads only on the fetch path."""
        loaded = self._loaded_by_import()
        assert not {"typing", "pathlib", "threading", "contextlib", "urllib.parse"} & loaded

    def test_subcommands_import_nothing(self):
        bfile = str(FIXTURES / "b054265.txt")
        cases = [
            ["terms", "--spec", "fib", "--count", "8"],
            ["terms", "--spec", "primes", "--count", "8", "--format", "csv"],
            ["gaps", "--spec", "horadam:1,3,1,2", "--count", "6"],
            ["gaps", "--spec", "fib", "--count", "6", "--format", "json"],
            ["gapsum", "--spec", "fold", "--count", "6", "--signed"],
            ["gapprod", "--spec", "linear:3,1", "--count", "6", "--format", "json"],
            ["gf", "--horadam", "1,1,1,1", "--gapsum", "--expand", "6"],
            ["gf", "--horadam", "2,1,1,1", "--format", "json"],
            ["expand", "--num", "1/2,1", "--den", "1,-1/3", "--count", "6"],
            ["fc", "--p", "3", "--m", "4", "--format", "json"],
            ["raney", "--p", "3", "--r", "2", "--n", "4"],
            ["check-identity", "--fc", "3,4"],
            ["check-identity", "--raney", "3,2,4", "--format", "json"],
            ["table", "figurate"],
            ["table", "fc"],
            ["table", "raney", "--format", "json"],
            ["table", "horadam"],
            ["check-oeis", "--spec", "primes", "--kind", "gapsum", "--id", "A054265",
             "--bfile", bfile],
            ["check-oeis", "--spec", "fib", "--kind", "gapprod", "--id", "A054265",
             "--bfile", bfile, "--format", "json"],
            ["terms", "--spec", "linear:3;1", "--count", "5"],
            ["terms", "--spec", "fib"],
            ["--help"],
        ]
        added = self._python(
            "import io, json, sys\n"
            "import gapseq.cli\n"
            "added = []\n"
            f"for argv in {cases!r}:\n"
            "    before = set(sys.modules)\n"
            "    sys.stdout = sys.stderr = io.StringIO()\n"
            "    gapseq.cli.run(argv)\n"
            "    sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__\n"
            "    added.append(sorted(set(sys.modules) - before))\n"
            "print(json.dumps(added))\n"
        )
        *commands, help_ = zip(cases, added)
        assert [(argv, new) for argv, new in commands if new] == []
        assert set(help_[1]) <= {"textwrap"}
