import io
import sys
import threading
import tracemalloc
import urllib.error
import urllib.request
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gapseq.oeis as oeis
from gapseq._decimal import int_to_str, str_to_int
from gapseq.gaps import gap_sum
from gapseq.oeis import (
    BFile,
    BFileError,
    FetchError,
    Mismatch,
    cross_check,
    default_cache_dir,
    fetch_bfile,
    parse_bfile,
)
from gapseq.sequences import FIBONACCI, Geometric, Polynomial, Primes

from conftest import HAS_DIGIT_LIMIT, int_digit_limit, load_fixture, sized_ints


def bfile_of(values, start=0, seq_id="A000000") -> BFile:
    return BFile(seq_id, start, tuple(values))


class TestParse:
    def test_basic(self):
        bf = parse_bfile("0 0\n1 4\n2 6\n")
        assert bf.entries == ((0, 0), (1, 4), (2, 6))

    def test_comments_and_blanks(self):
        bf = parse_bfile("# comment\n\n5 120\n6 720\n")
        assert bf.entries == ((5, 120), (6, 720))
        assert bf.start == 5
        assert bf.values == (120, 720)

    def test_non_contiguous(self):
        with pytest.raises(BFileError, match="line 2"):
            parse_bfile("1 2\n3 4\n")

    def test_malformed_line_number_reported(self):
        with pytest.raises(BFileError, match="line 3"):
            parse_bfile("0 1\n1 2\nbogus\n")
        with pytest.raises(BFileError, match="line 1"):
            parse_bfile("0 1 2\n")

    def test_crlf_and_bytes(self):
        bf = parse_bfile(b"0 1\r\n1 2\r\n", seq_id="A000027")
        assert bf.entries == ((0, 1), (1, 2))
        assert bf.seq_id == "A000027"

    def test_negative_and_huge_values(self):
        big = 10**40
        bf = parse_bfile(f"-2 -5\n-1 0\n0 {big}\n")
        assert bf.entries == ((-2, -5), (-1, 0), (0, big))

    def test_value_beyond_4300_digits(self):
        digits = 5000
        bf = parse_bfile(b"0 1\n1 " + b"7" * digits + b"\n")
        assert bf.entries[1][1] == 7 * (10**digits - 1) // 9

    def test_long_values_parse_in_concurrent_threads(self):
        digits = 5000
        text = b"".join(b"%d %s\n" % (i, str(i + 1).encode() * digits) for i in range(3))
        want = tuple((i + 1) * (10**digits - 1) // 9 for i in range(3))
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        errors = []

        def worker():
            try:
                for _ in range(20):
                    assert parse_bfile(text).values == want
            except Exception as exc:  # collected and asserted on below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_non_utf8_bytes_are_a_bfile_error(self):
        with pytest.raises(BFileError, match=r"line 2: byte 0xe9 is not UTF-8"):
            parse_bfile(b"0 1\n# caf\xe9\n1 2\n")

    @pytest.mark.parametrize("text", [
        b"\xef\xbb\xbf# A000045\n0 0\n1 1\n",
        b"\xef\xbb\xbf0 0\n1 1\n",
        "\ufeff0 0\n1 1\n",
    ])
    def test_leading_byte_order_mark_is_ignored(self, text):
        assert parse_bfile(text).entries == ((0, 0), (1, 1))

    def test_non_utf8_byte_after_byte_order_mark(self):
        # The offset counts the mark's three bytes, so it names the bad byte.
        with pytest.raises(BFileError, match=r"line 2: byte 0xe9 is not UTF-8"):
            parse_bfile(b"\xef\xbb\xbf0 1\n\xe9 2\n")

    def test_round_trip(self):
        assert parse_bfile("3 10\n4 20\n5 -30\n") == bfile_of([10, 20, -30], 3, "")

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-3, 3), st.lists(sized_ints(), min_size=1, max_size=3))
    def test_round_trip_at_any_length(self, start, values):
        bf = bfile_of(values, start)
        text = "".join(f"{start + i} {int_to_str(v)}\n" for i, v in enumerate(values))
        assert parse_bfile(text, bf.seq_id) == bf

    def test_short_fields_keep_int_syntax(self):
        assert parse_bfile("0 +5\n1 1_000\n2 -0\n").entries == ((0, 5), (1, 1000), (2, 0))

    def test_long_signed_values(self):
        bf = parse_bfile("0 -" + "9" * 5000 + "\n1 +" + "0" * 4999 + "1\n")
        assert bf.values == (1 - 10**5000, 1)

    @pytest.mark.skipif(not HAS_DIGIT_LIMIT, reason="Python 3.10 has no int/str digit limit")
    def test_long_field_with_underscore_is_a_bfile_error(self):
        with int_digit_limit(4300), pytest.raises(BFileError, match="line 2: non-integer field"):
            parse_bfile("0 1\n1 1_" + "0" * 5000 + "\n")

    def test_long_values_parse_in_threads_under_the_limit(self, limit_untouched):
        digits = 5000
        text = b"".join(b"%d %s\n" % (i, str(i + 1).encode() * digits) for i in range(3))
        want = tuple((i + 1) * (10**digits - 1) // 9 for i in range(3))
        errors = []

        def worker():
            try:
                for _ in range(10):
                    assert parse_bfile(text).values == want
            except Exception as exc:  # collected and asserted on below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


def reference_entries(text: str) -> tuple[tuple[int, int], ...]:
    """The (index, value) pairs of b-file text, by a line loop that keeps
    every pair and checks each index against the previous pair's."""
    entries: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise BFileError(f"line {lineno}: expected '<index> <value>', got {raw!r}")
        try:
            index, value = int(fields[0]), str_to_int(fields[1])
        except ValueError as exc:
            raise BFileError(f"line {lineno}: non-integer field in {raw!r}") from exc
        if entries and index != entries[-1][0] + 1:
            raise BFileError(
                f"line {lineno}: index {index} is not contiguous after {entries[-1][0]}"
            )
        entries.append((index, value))
    return tuple(entries)


LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
               "\u2029")
_SPACE = st.sampled_from([" ", "  ", "\t", " \t "])
_INDENT = st.sampled_from(["", " ", "\t", "\u3000"])
_VALUE = st.one_of(
    st.builds("{}{}".format, st.sampled_from(["", "+", "-"]), st.integers(0, 10**6).map(str)),
    st.sampled_from(["1_000", "-2_5", "+0", "-0", "\u0663"]),
    st.builds("{}{}".format, st.sampled_from(["", "-", "+"]),
              st.integers(4290, 4400).map(lambda n: "7" * n)),
)
_NOT_INT = st.one_of(
    st.sampled_from(["x", "1.5", "0x10", "++1", "_1", "1__0", "1_"]),
    st.integers(4300, 4320).map(lambda n: "1_" + "0" * n),
)
_FIELD = _VALUE | _NOT_INT
_COMMENT = st.text(st.characters(codec="utf-8", exclude_categories=["Cs"]), max_size=5)


@st.composite
def bfile_texts(draw) -> str:
    """b-file text, mostly contiguous, with every kind of line and line break."""
    index = draw(st.integers(-3, 3))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["entry"] * 10 + ["comment", "blank", "fields", "jump"]))
        if kind == "comment":
            line = draw(_INDENT) + "#" + draw(_COMMENT)
        elif kind == "blank":
            line = draw(st.sampled_from(["", " ", "\t", " \t "]))
        elif kind == "fields":
            fields = draw(st.lists(_FIELD, min_size=1, max_size=3).filter(lambda f: len(f) != 2))
            line = draw(_SPACE).join(fields)
        else:
            if kind == "jump":
                index += draw(st.sampled_from([-1, 0, 2, 5]))
            value = draw(_NOT_INT if draw(st.integers(0, 9)) == 0 else _VALUE)
            line = draw(_INDENT) + str(index) + draw(_SPACE) + value + draw(_INDENT)
            index += 1
        lines.append(line + draw(st.sampled_from(LINE_BREAKS)))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + "".join(lines)


# One defect a row at most, each a way out of the bulk path for its block.
_ROW_DEFECTS = ["comment", "blank", "jump", "repeat", "one field", "three fields", "5-1",
                "--5", "-0", "007", "long", "crlf"]


@st.composite
def canonical_bfile_texts(draw) -> str:
    """b-file text of rows ``<index> <value>\n`` after ``#`` header lines,
    most rows canonical and the others with one defect each; the bulk
    path takes most blocks whole, and the line loop the rest."""
    index = draw(st.integers(-3, 3))
    lines = [f"#{draw(st.sampled_from(['', ' A000045', ' n a(n)']))}\n"
             for _ in range(draw(st.integers(0, 2)))]
    for _ in range(draw(st.integers(0, 12))):
        defect = draw(st.sampled_from([None] * 3 * len(_ROW_DEFECTS) + _ROW_DEFECTS))
        value = str(draw(st.integers(-10**6, 10**6)))
        end = "\n"
        if defect == "comment":
            lines.append("# mid-file comment\n")
        elif defect == "blank":
            lines.append("\n")
        elif defect == "jump":
            index += draw(st.integers(1, 3))
        elif defect == "repeat":
            index -= 1
        elif defect == "long":
            digits = draw(st.integers(4299, 4301))
            value = draw(st.sampled_from(["", "-"])) + str(draw(st.integers(1, 9))) * digits
        elif defect == "crlf":
            end = "\r\n"
        elif defect in ("5-1", "--5", "-0", "007"):
            value = defect
        row = f"{index} {value}"
        if defect == "one field":
            row = str(index)
        elif defect == "three fields":
            row += f" {value}"
        lines.append(row + end)
        index += 1
    text = "".join(lines)
    return text.removesuffix("\n") if draw(st.booleans()) else text


def assert_parses_as_reference(text: str) -> None:
    try:
        want = reference_entries(text)
    except BFileError as exc:
        for given_text in (text, text.encode()):
            with pytest.raises(BFileError) as info:
                parse_bfile(given_text)
            assert str(info.value) == str(exc)
    else:
        for given_text in (text, text.encode()):
            bf = parse_bfile(given_text)
            assert bf.entries == want
            assert bf.start == (want[0][0] if want else 0)


def given_as(rows: bytes) -> dict:
    """ASCII b-file rows in each form parse_bfile takes them: as they
    are, after a UTF-8 comment line, after a byte-order mark, and as a
    str."""
    return {"ascii": rows, "utf8-comment": "# caf\u00e9 \u2014 n \u21a6 a(n)\n".encode() + rows,
            "byte-order-mark": b"\xef\xbb\xbf" + rows, "str": rows.decode()}


class TestParseMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(bfile_texts())
    def test_same_entries_or_same_error(self, text):
        assert_parses_as_reference(text)

    # Blocks of 1, 2 and 7 characters put a block's search start on every
    # character of a short text, the "\n" of a "\r\n" included.
    @pytest.mark.parametrize("block", [1, 2, 7])
    @settings(max_examples=300, deadline=None)
    @given(text=bfile_texts())
    def test_same_at_small_blocks(self, block, text):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oeis, "_BLOCK", block)
            assert_parses_as_reference(text)

    # Small blocks cut a text at every row, and at 64 characters a block
    # holds a few rows, so a defect ends the bulk path of one block only.
    @pytest.mark.parametrize("block", [1, 2, 7, 64, oeis._BLOCK])
    @settings(max_examples=200, deadline=None)
    @given(text=canonical_bfile_texts())
    @example(text="# a\rb\n0 1\n")  # "\r" breaks the comment line in two
    @example(text="-2 5\n-1 6\n0 7\n")
    # One field short: the skeleton is canonical, the split is not.
    @example(text="0 1\n1 \n")
    @example(text=" 5\n")
    @example(text="0 1\n1 2\n2 \n3 4\n")
    def test_same_on_canonical_rows(self, block, text):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oeis, "_BLOCK", block)
            assert_parses_as_reference(text)

    @pytest.mark.parametrize("text, message", [
        (b"0 1\n1 \n", "line 2: expected '<index> <value>', got '1 '"),
        (b" 5\n", "line 1: expected '<index> <value>', got ' 5'"),
        (b"0 1\n1 2\n2 \n3 4\n", "line 3: expected '<index> <value>', got '2 '"),
    ], ids=["last-row", "only-row", "middle-row"])
    def test_row_one_field_short(self, text, message):
        with pytest.raises(BFileError) as info:
            parse_bfile(text)
        assert str(info.value) == message

    def test_canonical_blocks_skip_the_line_loop(self, monkeypatch):
        # Only the line loop calls str_to_int.
        calls = []
        monkeypatch.setattr(oeis, "str_to_int", lambda text: calls.append(text) or int(text))
        rows = b"# A000000\n# n 7n-3\n" + b"".join(b"%d %d\n" % (i, 7 * i - 3)
                                                   for i in range(1, 50001))
        first_block = rows.count(b"\n", 0, oeis._BLOCK + 64)
        for name, text in given_as(rows).items():
            calls.clear()
            bf = parse_bfile(text)
            assert bf.start == 1 and bf.values == tuple(range(4, 350000, 7)), name
            # Only the block that holds the UTF-8 comment takes the line loop.
            assert len(calls) <= (first_block if name == "utf8-comment" else 0), name

    @pytest.mark.parametrize("bad_row, message", [
        (b"123455 1 2\n", "line 123457: expected '<index> <value>', got '123455 1 2'"),
        (b"123457 1\n", "line 123457: index 123457 is not contiguous after 123454"),
    ])
    def test_line_numbers_run_on_across_blocks(self, bad_row, message):
        # A header line, then index i on line i + 2: row 123455 is on line 123457.
        rows = [b"%d %d\n" % (i, i) for i in range(200000)]
        rows[123455] = bad_row
        with pytest.raises(BFileError) as info:
            parse_bfile(b"# header\n" + b"".join(rows))
        assert str(info.value) == message

    def test_kept_memory_is_one_int_per_entry(self):
        # 50000 lines of 10-digit values: 1.9 MiB kept as one tuple of
        # ints, 5.9 MiB as a tuple of (index, value) pairs.
        text = b"".join(b"%d %d\n" % (i, 10**9 + 7 * i) for i in range(50000))
        tracemalloc.start()
        try:
            bf = parse_bfile(text)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert bf.start == 0 and len(bf.values) == 50000
        assert kept < 3 * 2**20

    def test_peak_memory_is_the_values_plus_a_block(self):
        # 3.8 MB of text, so a whole decoded copy of it, or a list of
        # all its lines, would pass the bound on its own.
        rows = b"".join(b"%d %d\n" % (n, 3**n + 41) for n in range(4000))
        for name, text in given_as(rows).items():
            tracemalloc.start()
            try:
                bf = parse_bfile(text)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert bf.values[-1] == 3**3999 + 41, name
            assert peak < kept + 2**20, name

    def test_peak_memory_of_short_rows_is_the_values_plus_a_block(self):
        # Short rows put the most rows, and so the most fields, in one
        # block; a block's fields are what the bulk path holds beyond it.
        rows = b"".join(b"%d %d\n" % (i, i) for i in range(50000))
        for name, text in given_as(rows).items():
            tracemalloc.start()
            try:
                bf = parse_bfile(text)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert bf.values == tuple(range(50000)), name
            assert peak < kept + 2**20, name


class TestCrossCheck:
    def test_identity_alignment_any_max_shift(self):
        values = [3, 1, 4, 1, 5, 9, 2, 6]
        for max_shift in (0, 1, 4):
            report = cross_check(values, bfile_of(values), max_shift)
            assert report.matched and report.shift == 0
            assert report.compared == len(values)
            assert report.first_mismatch is None

    @pytest.mark.parametrize("values", [[1, 2], [3, 1, 4, 1, 5]])
    def test_negative_max_shift_rejected(self, values):
        with pytest.raises(ValueError, match=r"^max_shift must be >= 0, got -1$"):
            cross_check(values, bfile_of(values), -1)

    def test_shift_detection(self):
        values = [3, 1, 4, 1, 5, 9, 2, 6]
        report = cross_check(values[2:], bfile_of(values), 3)
        assert report.matched and report.shift == 2

    def test_negative_shift_detection(self):
        values = [3, 1, 4, 1, 5, 9, 2, 6]
        report = cross_check(values, bfile_of(values[3:]), 4)
        assert report.matched and report.shift == -3

    def test_single_corruption_reported(self):
        values = [10, 20, 30, 40, 50]
        entries = bfile_of([10, 20, 31, 40, 50], start=7)
        report = cross_check(values, entries, 2)
        assert not report.matched
        assert report.first_mismatch == Mismatch(index=9, expected=31, got=30)
        assert report.shift == 0

    def test_tie_break_prefers_non_negative(self):
        values = [1, 2, 1, 2]
        report = cross_check(values, bfile_of([2, 1, 2, 1]), 2)
        assert report.matched and report.shift == 1

    def test_smallest_shift_wins(self):
        constant = [7] * 6
        report = cross_check(constant, bfile_of(constant), 4)
        assert report.shift == 0

    def test_max_shift_beyond_both_lengths(self):
        values = [5, 6, 7, 8]
        report = cross_check(values, bfile_of(values), 10**12)
        assert report.matched and report.shift == 0 and report.compared == 4

    @settings(max_examples=300)
    @given(st.lists(st.integers(0, 2), min_size=1, max_size=6),
           st.lists(st.integers(0, 2), min_size=1, max_size=6), st.integers(0, 12))
    def test_same_outcome_as_trying_every_shift(self, values, expected, max_shift):
        bf = bfile_of(expected, start=3)
        # Every shift in -max_shift..max_shift, smallest |s| first and s >= 0
        # first on ties; the first full agreement wins, else the longest.
        best = None
        for shift in sorted(range(-max_shift, max_shift + 1), key=lambda s: (abs(s), s < 0)):
            pairs = [(values[j], bf.entries[j + shift]) for j in range(len(values))
                     if 0 <= j + shift < len(expected)]
            if not pairs:
                continue
            agreed = next((i for i, (v, (_, e)) in enumerate(pairs) if v != e), len(pairs))
            if agreed == len(pairs):
                best = (True, shift, len(pairs), None)
                break
            if best is None or agreed > best[3][0]:
                index, e = pairs[agreed][1]
                best = (False, shift, len(pairs), (agreed, Mismatch(index, e, pairs[agreed][0])))
        report = cross_check(values, bf, max_shift)
        assert best is not None  # shift 0 always overlaps
        matched, shift, compared, mismatch = best
        assert (report.matched, report.shift, report.compared) == (matched, shift, compared)
        assert report.first_mismatch == (mismatch[1] if mismatch else None)

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            cross_check([], bfile_of([1, 2]), 2)

    def test_empty_bfile_rejected(self):
        with pytest.raises(ValueError):
            cross_check([1], BFile("A000000", 0, ()), 2)

    def test_empty_bfile_is_a_bfile_error(self):
        with pytest.raises(oeis.BFileError, match="A000000 has no entries"):
            cross_check([1], BFile("A000000", 0, ()), 2)

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=12))
    def test_self_check_property(self, values):
        report = cross_check(values, bfile_of(values, start=-3), 4)
        assert report.matched and report.shift == 0


class TestFixtures:
    def test_prime_gap_sums_match(self):
        bf = parse_bfile(load_fixture("b054265.txt"), "A054265")
        values = [gap_sum(Primes(), n) for n in range(11)]
        report = cross_check(values, bf, 4)
        assert report.matched and report.shift == 0

    def test_fibonacci_gap_sums_match(self):
        bf = parse_bfile(load_fixture("b109454.txt"), "A109454")
        values = [gap_sum(FIBONACCI, n) for n in range(11)]
        report = cross_check(values, bf, 4)
        assert report.matched and report.shift == 0

    def test_fibonacci_tail_detects_shift(self):
        bf = parse_bfile(load_fixture("b109454.txt"), "A109454")
        tail = [gap_sum(FIBONACCI, n) for n in range(4, 11)]
        report = cross_check(tail, bf, 4)
        assert report.matched and report.shift == 4

    def test_geometric_gap_sums_match(self):
        bf = parse_bfile(load_fixture("b103897.txt"), "A103897")
        values = [gap_sum(Geometric(2), n) for n in range(8)]
        report = cross_check(values, bf, 4)
        assert report.matched and report.shift == 0

    def test_triangular_gap_sums_match(self):
        from fractions import Fraction

        bf = parse_bfile(load_fixture("b006002.txt"), "A006002")
        triangular = Polynomial((0, Fraction(1, 2), Fraction(1, 2)))
        values = [gap_sum(triangular, n) for n in range(11)]
        report = cross_check(values, bf, 4)
        assert report.matched and report.shift == 0


class TestFetch:
    def test_malformed_id(self, tmp_path):
        with pytest.raises(BFileError):
            fetch_bfile("A10", tmp_path)
        with pytest.raises(BFileError):
            fetch_bfile("054265", tmp_path)

    def test_non_ascii_digits_in_id(self, tmp_path, monkeypatch):
        monkeypatch.setattr(oeis, "_http_get", lambda url: pytest.fail(f"network hit: {url}"))
        with pytest.raises(BFileError, match="malformed A-number"):
            fetch_bfile("A\u0661\u0662\u0663\u0664\u0665\u0666", tmp_path)
        assert not list(tmp_path.iterdir())

    def test_warm_cache_no_network(self, tmp_path, monkeypatch):
        (tmp_path / "b054265.txt").write_bytes(load_fixture("b054265.txt"))

        def no_network(url):
            raise AssertionError(f"unexpected network access: {url}")

        monkeypatch.setattr(oeis, "_http_get", no_network)
        bf = fetch_bfile("A054265", tmp_path)
        assert bf.seq_id == "A054265"
        assert bf.values[:4] == (0, 4, 6, 27)

    def test_cold_fetch_stores_raw_bytes(self, tmp_path, monkeypatch):
        raw = load_fixture("b103897.txt")
        calls = []

        def fake_get(url):
            calls.append(url)
            return raw

        monkeypatch.setattr(oeis, "_http_get", fake_get)
        bf = fetch_bfile("A103897", tmp_path)
        assert calls == ["https://oeis.org/A103897/b103897.txt"]
        assert (tmp_path / "b103897.txt").read_bytes() == raw
        assert bf.values[:3] == (0, 3, 18)
        # second call is served from the cache
        monkeypatch.setattr(oeis, "_http_get", lambda url: pytest.fail("network hit"))
        again = fetch_bfile("A103897", tmp_path)
        assert again == bf
        assert not list(tmp_path.glob("*.part"))

    def test_malformed_download_is_not_cached(self, tmp_path, monkeypatch):
        monkeypatch.setattr(oeis, "_http_get", lambda url: b"0 0\n1 4\n2 x\n")
        with pytest.raises(BFileError, match="line 3"):
            fetch_bfile("A054265", tmp_path)
        assert list(tmp_path.iterdir()) == []
        raw = load_fixture("b054265.txt")
        monkeypatch.setattr(oeis, "_http_get", lambda url: raw)
        assert fetch_bfile("A054265", tmp_path).values[:4] == (0, 4, 6, 27)
        assert (tmp_path / "b054265.txt").read_bytes() == raw

    def test_bad_cached_file_is_set_aside_and_refetched(self, tmp_path, monkeypatch):
        bad = b"0 1\n1 x\n"
        (tmp_path / "b054265.txt").write_bytes(bad)
        (tmp_path / "b054265.txt.bad").write_bytes(b"older\n")
        raw = load_fixture("b054265.txt")
        calls = []

        def fake_get(url):
            calls.append(url)
            return raw

        monkeypatch.setattr(oeis, "_http_get", fake_get)
        assert fetch_bfile("A054265", tmp_path).values[:4] == (0, 4, 6, 27)
        assert calls == ["https://oeis.org/A054265/b054265.txt"]
        assert (tmp_path / "b054265.txt").read_bytes() == raw
        assert (tmp_path / "b054265.txt.bad").read_bytes() == bad

    def test_bad_cached_file_set_aside_by_another_fetcher(self, tmp_path, monkeypatch):
        path = tmp_path / "b054265.txt"
        path.write_bytes(b"0 1\n1 x\n")
        real_parse = oeis.parse_bfile

        def parse_after_the_other_fetcher(raw, seq_id):
            if path.exists() and path.read_bytes() == raw:
                path.rename(tmp_path / "b054265.txt.bad")
            return real_parse(raw, seq_id)

        monkeypatch.setattr(oeis, "parse_bfile", parse_after_the_other_fetcher)
        monkeypatch.setattr(oeis, "_http_get", lambda url: load_fixture("b054265.txt"))
        assert fetch_bfile("A054265", tmp_path).values[:4] == (0, 4, 6, 27)
        assert (tmp_path / "b054265.txt.bad").read_bytes() == b"0 1\n1 x\n"

    def test_bad_cached_file_then_malformed_download(self, tmp_path, monkeypatch):
        (tmp_path / "b054265.txt").write_bytes(b"\xe9\n")
        monkeypatch.setattr(oeis, "_http_get", lambda url: b"0 0\n1 4\n2 x\n")
        with pytest.raises(BFileError, match="line 3"):
            fetch_bfile("A054265", tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b054265.txt.bad"]

    def test_empty_download_is_not_cached(self, tmp_path, monkeypatch):
        monkeypatch.setattr(oeis, "_http_get", lambda url: b"# no terms\n")
        with pytest.raises(BFileError, match="no entries"):
            fetch_bfile("A054265", tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_empty_cached_file_is_set_aside_and_refetched(self, tmp_path, monkeypatch):
        (tmp_path / "b054265.txt").write_bytes(b"")
        raw = load_fixture("b054265.txt")
        calls = []

        def fake_get(url):
            calls.append(url)
            return raw

        monkeypatch.setattr(oeis, "_http_get", fake_get)
        assert fetch_bfile("A054265", tmp_path).values[:4] == (0, 4, 6, 27)
        assert len(calls) == 1
        assert (tmp_path / "b054265.txt").read_bytes() == raw
        assert (tmp_path / "b054265.txt.bad").read_bytes() == b""

    @staticmethod
    def _serve(monkeypatch, body):
        """Stub urlopen with a response of body; returns the sizes read."""
        sizes = []

        class Response(io.BytesIO):
            def read(self, size=-1):
                sizes.append(size)
                return super().read(size)

        monkeypatch.setattr(urllib.request, "urlopen", lambda url, timeout: Response(body))
        monkeypatch.setattr(oeis, "_MAX_RESPONSE_BYTES", 16)
        return sizes

    def test_response_at_the_bound_is_read(self, monkeypatch):
        sizes = self._serve(monkeypatch, b"0 1\n1 2\n2 3\n3 4\n")
        assert oeis._http_get("https://oeis.org/A000001/b000001.txt") == b"0 1\n1 2\n2 3\n3 4\n"
        assert sizes == [17]

    def test_response_beyond_the_bound_fails(self, tmp_path, monkeypatch):
        sizes = self._serve(monkeypatch, b"0 1\n1 2\n2 3\n3 456\n" + b"9" * 1000)
        with pytest.raises(FetchError, match="larger than 16 bytes"):
            fetch_bfile("A000001", tmp_path)
        assert sizes == [17]
        assert list(tmp_path.iterdir()) == []

    def test_network_unavailable(self, tmp_path, monkeypatch):
        def down(url):
            raise urllib.error.URLError("no route to host")

        monkeypatch.setattr(urllib.request, "urlopen", lambda *a, **k: down(a[0]))
        with pytest.raises(FetchError, match="network unavailable"):
            fetch_bfile("A109454", tmp_path)

    def test_http_error(self, tmp_path, monkeypatch):
        def gone(url, timeout):
            raise urllib.error.HTTPError(url, 404, "not found", None, None)

        monkeypatch.setattr(urllib.request, "urlopen", gone)
        with pytest.raises(FetchError, match="HTTP 404"):
            fetch_bfile("A109454", tmp_path)

    def test_cache_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GAPSEQ_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"
        monkeypatch.delenv("GAPSEQ_CACHE_DIR")
        assert default_cache_dir() == Path.home() / ".cache" / "gapseq"
