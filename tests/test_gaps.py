import math
import operator
import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from math import prod
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapseq.gaps as gaps
from gapseq._decimal import _DIRECT_BITS, exact, show
from gapseq.gaps import (
    _WIDE_LENGTH,
    _WIDE_SPAN,
    Gap,
    _factorial_ratio,
    _mul,
    decimal_gap_sequence,
    gap,
    gap_product,
    gap_product_between,
    gap_sequence,
    gap_span_between,
    gap_sum,
    gap_sum_abs,
    gap_sum_between,
    gap_sum_geometric_closed,
    gap_sum_linear_closed,
    gap_sum_signed,
    product_range,
)
from gapseq.sequences import (
    FIBONACCI,
    Binomial,
    Fold,
    Geometric,
    Horadam,
    Linear,
    Polynomial,
    Primes,
    decimal_terms,
    term,
    terms,
)

from conftest import balanced_product, int_digit_limit

HALF = Fraction(1, 2)

# Sequences the whole battery of oracle checks runs over.
BATTERY = [
    Primes(),
    FIBONACCI,
    Horadam(1, 3, 1, 2),
    Horadam(1, 1, 1, 2),
    Horadam(1, 2, 2, 1),
    Horadam(1, 2, 2, 2),
    Geometric(2),
    Geometric(2, -1),
    Geometric(3),
    Linear(3, 1),
    Linear(5, 2),
    Polynomial((0, 0, 1)),
    Polynomial((0, HALF, HALF)),
    Binomial(2, 3),
    Fold(),
]


def brute_sum(spec, n) -> int:
    return sum(gap(spec, n).elements)


def brute_product(spec, n) -> int:
    return prod(gap(spec, n).elements, start=1)


class TestGap:
    def test_j_plus_2_example(self):
        assert gap(Horadam(1, 3, 1, 2), 2) == Gap(start=6, length=5)
        assert list(gap(Horadam(1, 3, 1, 2), 2).elements) == [6, 7, 8, 9, 10]

    def test_consecutive_integers(self):
        for n in range(20):
            assert gap(Linear(1, 0), n) == Gap(start=n + 1, length=0)

    def test_primes_gap_from_enumeration(self):
        # composites strictly between the 4th and 5th primes (7 and 11)
        def is_prime(v):
            return v >= 2 and all(v % f for f in range(2, v))

        between = [v for v in range(term(Primes(), 3) + 1, term(Primes(), 4))]
        assert all(not is_prime(v) for v in between)
        g = gap(Primes(), 3)
        assert (g.start, g.length) == (8, 3)
        assert list(g.elements) == between


class TestGapSum:
    def test_poly_2n2_example(self):
        spec = Polynomial((0, 0, 2))
        assert gap_sum(spec, 1) == 25
        want = [1, 25, 117, 325, 697, 1281, 2125, 3277, 4785]
        assert [gap_sum(spec, n) for n in range(9)] == want

    def test_geometric_example(self):
        assert gap_sum(Geometric(2), 2) == 18

    def test_fibonacci_listing(self):
        want = [0, 0, 0, 0, 4, 13, 42, 119, 330, 890, 2376]
        assert [gap_sum(FIBONACCI, n) for n in range(11)] == want

    def test_zero_for_identity_sequence(self):
        assert all(gap_sum(Linear(1, 0), n) == 0 for n in range(50))


class TestGapSumSigned:
    def test_j_plus_1_artifact(self):
        spec = Horadam(0, 1, 1, 2, shift=1)
        assert gap_sum_signed(spec, 0) == -1
        assert [gap_sum_signed(spec, n) for n in range(5)] == [-1, 2, 4, 40, 144]

    def test_identity_sequence(self):
        assert all(gap_sum_signed(Linear(1, 0), n) == 0 for n in range(20))

    def test_primes(self):
        assert gap_sum_signed(Primes(), 3) == 27


class TestGapSumAbs:
    def test_fold_values(self):
        assert gap_sum_abs(Fold(), 2) == 9
        assert gap_sum_abs(Fold(), 0) == 0

    def test_linear_width_one(self):
        # |8 - 6 - 1| = 1, so the sum is the single value 6 + 1
        assert gap_sum_abs(Linear(2, 0), 3) == 7

    def test_agrees_with_clamped_on_wide_steps(self):
        for spec in (Primes(), Geometric(2)):
            for n in range(1, 30):
                assert gap_sum_abs(spec, n) == gap_sum(spec, n)


class TestGapProduct:
    def test_j_plus_2(self):
        spec = Horadam(1, 3, 1, 2)
        assert gap_product(spec, 3) == 60949324800
        assert [gap_product(spec, n) for n in range(4)] == [2, 4, 30240, 60949324800]

    def test_fibonacci_listing(self):
        want = [1, 1, 1, 1, 4, 42, 11880, 390700800, 169958063987712000]
        assert [gap_product(FIBONACCI, n) for n in range(9)] == want

    def test_identity_sequence(self):
        assert all(gap_product(Linear(1, 0), n) == 1 for n in range(20))

    def test_linear_3n_plus_1(self):
        assert gap_product(Linear(3, 1), 1) == 30
        assert [gap_product(Linear(3, 1), n) for n in range(6)] == [6, 30, 72, 132, 210, 306]


def near(edge: int, reach: int):
    return st.integers(edge - reach, edge + reach)


class TestProductRange:
    def test_empty(self):
        assert product_range(5, 5) == 1
        assert product_range(5, 4) == 1

    def test_factorial(self):
        import math

        assert product_range(1, 201) == math.factorial(200)

    def test_split_threshold_boundary(self):
        for width in (63, 64, 65, 200):
            lo = 1000
            assert product_range(lo, lo + width) == prod(range(lo, lo + width))

    # A wide range from prime exponents, and one a single integer too short for that path.
    @pytest.mark.parametrize("lo, hi", [(30001, 90001), (30001, 30001 + _WIDE_LENGTH - 1)])
    def test_fixed_wide_and_just_short_ranges(self, lo, hi):
        assert product_range(lo, hi) == balanced_product(lo, hi)

    @settings(max_examples=25, deadline=None)
    @given(near(_WIDE_LENGTH, 3), st.integers(1, 3 * _WIDE_LENGTH))
    def test_around_the_length_threshold(self, n, lo):
        assert product_range(lo, lo + n) == balanced_product(lo, lo + n)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(_WIDE_LENGTH, _WIDE_LENGTH + 500), st.integers(-2, 2))
    def test_around_the_span_threshold(self, n, offset):
        hi = _WIDE_SPAN * n + offset
        assert product_range(hi - n, hi) == balanced_product(hi - n, hi)

    # The route, not only the value: a wide range (at least _WIDE_LENGTH
    # integers, hi <= _WIDE_SPAN * n) is one _factorial_ratio call, and a
    # narrow or short one none.
    @pytest.mark.parametrize("lo, hi, want_calls", [
        (1, _WIDE_LENGTH + 1, 1),
        ((_WIDE_SPAN - 1) * _WIDE_LENGTH, _WIDE_SPAN * _WIDE_LENGTH, 1),
        ((_WIDE_SPAN - 1) * _WIDE_LENGTH + 1, _WIDE_SPAN * _WIDE_LENGTH + 1, 0),
        (10**6, 10**6 + _WIDE_LENGTH, 0),
        (1, _WIDE_LENGTH, 0),
    ], ids=["wide-from-one", "wide-at-the-span", "narrow-past-the-span", "narrow", "short"])
    def test_factorial_ratio_route(self, monkeypatch, lo, hi, want_calls):
        calls = []

        def counting(*args):
            calls.append(args)
            return _factorial_ratio(*args)

        monkeypatch.setattr(gaps, "_factorial_ratio", counting)
        assert product_range(lo, hi) == math.perm(hi - 1, hi - lo)
        assert len(calls) == want_calls

    @settings(max_examples=10, deadline=None)
    @given(near(_WIDE_LENGTH, 2))
    def test_from_one_is_a_factorial(self, n):
        assert product_range(1, n + 1) == math.factorial(n)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3000), st.integers(0, 3000))
    def test_factorial_ratio_on_short_ranges(self, lo, n):
        assert _factorial_ratio(lo, lo + n) == prod(range(lo, lo + n))

    @pytest.mark.parametrize("power", [9, 25, 27, 49, 121, 125, 343, 2187, 3**9, 5**6, 7**5])
    def test_factorial_ratio_at_prime_powers(self, power):
        """Legendre's sum has a last term at p^k == hi - 1 or lo - 1."""
        for lo, hi in [(1, power + 1), (power // 3, power + 1), (power + 1, 2 * power),
                       (power, power + 2), (power + 1, power + 2)]:
            assert _factorial_ratio(lo, hi) == prod(range(lo, hi))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(-3 * _WIDE_LENGTH, 0), near(_WIDE_LENGTH, 2))
    def test_ranges_from_zero_or_below(self, lo, n):
        """lo <= 0 keeps the balanced split: all-negative ranges and
        ranges through 0 alike."""
        assert product_range(lo, lo + n) == balanced_product(lo, lo + n)

    @pytest.mark.parametrize("lo, hi", [(-70000, -50000), (-20000, 1), (-5, 20000),
                                        (0, 20000), (-1, 0), (3, -3), (20000, 20000),
                                        (20000, 3000)])
    def test_signs_zero_and_empty(self, lo, hi):
        assert product_range(lo, hi) == prod(range(lo, hi))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-300, 0), st.integers(1, 300))
    def test_ranges_through_zero(self, lo, hi):
        assert product_range(lo, hi) == prod(range(lo, hi))

    def test_long_range_through_zero_never_multiplies(self, monkeypatch):
        def fail(*args):
            raise AssertionError("multiplied a range that contains 0")

        monkeypatch.setattr(gaps, "_product", fail)
        monkeypatch.setattr(gaps, "_factorial_ratio", fail)
        assert product_range(0, 200000) == 0
        assert product_range(-199999, 200000) == 0
        assert product_range(-65, 1) == 0

    # Short ranges are one math.perm: the value, and the route.
    @settings(max_examples=300, deadline=None)
    @given(st.integers(-3, 66), st.one_of(st.integers(-10**30, -1), st.just(0),
                                          st.integers(1, 10**30), st.integers(-70, 70)))
    def test_short_ranges_of_either_sign(self, n, lo):
        want = prod(range(lo, lo + n))
        assert product_range(lo, lo + n) == want
        if n <= 0:
            assert want == 1  # a descent

    def test_short_ranges_make_no_running_product(self, monkeypatch):
        def fail(*args):
            raise AssertionError("took prod")

        monkeypatch.setattr(gaps, "prod", fail)  # this module's prod stays math.prod
        for lo, hi in [(1, 65), (10**20, 10**20 + 64), (-64, 0), (-10**20 - 63, -10**20 + 1),
                       (5, 6), (-5, -4), (7, 3), (-3, 4)]:
            assert product_range(lo, hi) == prod(range(lo, hi))
        # Long positive ranges: every leaf of the balanced split is a perm too.
        assert product_range(1, 2000) == math.factorial(1999)
        assert product_range(1000, 3000) == math.perm(2999, 2000)


class TestProductLeaves:
    """_product's leaves: one perm over a range of positive integers, a
    running product over any other range and over a list of primes."""

    @pytest.mark.parametrize("n", [63, 64, 65, 129])
    @pytest.mark.parametrize("start", [1, 0, -1, -200, 10**12])
    def test_leaves_around_the_split(self, n, start):
        values = range(start, start + n + 7)
        for lo in (0, 3, 7):
            assert gaps._product(values, lo, lo + n) == prod(values[lo:lo + n])

    def test_prime_lists_and_negative_ranges_keep_prod(self, monkeypatch):
        calls = []
        real = prod

        def counting(values):
            calls.append(1)
            return real(values)

        monkeypatch.setattr(gaps, "prod", counting)
        assert gaps._product([3, 5, 7, 11], 0, 4) == 1155
        assert gaps._product(range(-70, -1), 0, 69) == prod(range(-70, -1))
        assert len(calls) == 3


def _printed(lo: int, n: int) -> tuple[str, str]:
    """The CLI's printed product of [lo, lo + n) as show prints it (str for
    a Decimal), and the library's int product likewise."""
    printed = gaps._printed_product_between(lo - 1, lo + n)
    return show(printed), show(gap_product_between(lo - 1, lo + n))


class TestPrintedProduct:
    """gapprod prints a product of more than 64 positive integers that does
    not take _factorial_ratio from an exact Decimal; every other product is
    the int of product_range. The printed text is show's in every case."""

    @pytest.mark.parametrize("limit", [4300, 0])
    @pytest.mark.parametrize("n", [63, 64, 65, 66])
    @pytest.mark.parametrize("lo", [-70, -1, 0, 1, 2, 10**30])
    def test_around_64_and_zero(self, limit, n, lo):
        with int_digit_limit(limit):
            printed, want = _printed(lo, n)
        assert printed == want

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 40), st.integers(-4, 4), st.integers(0, 2**20), st.sampled_from([4300, 0]))
    def test_around_the_leaf_bits(self, bits, offset, low, limit):
        """Products of about _DIRECT_BITS bits: leaves of a few values up to
        the whole product in one leaf."""
        lo = (1 << (bits - 1)) + low % (1 << (bits - 1))
        n = max(1, _DIRECT_BITS // bits + offset)
        with int_digit_limit(limit):
            printed, want = _printed(lo, n)
        assert printed == want

    @settings(max_examples=15, deadline=None)
    @given(st.integers(_DIRECT_BITS - 3, _DIRECT_BITS + 70), st.integers(65, 140),
           st.integers(0, 2**64), st.sampled_from([4300, 0]))
    def test_values_wider_than_a_leaf(self, bits, n, low, limit):
        """Every leaf one value, and a value as long as to_decimal's pieces or longer."""
        lo = (1 << (bits - 1)) + low
        with int_digit_limit(limit):
            printed, want = _printed(lo, n)
        assert printed == want

    @settings(max_examples=6, deadline=None)
    @given(near(_WIDE_LENGTH, 2), st.integers(-2, 2), st.sampled_from([4300, 0]))
    def test_around_the_wide_thresholds(self, n, offset, limit):
        hi = _WIDE_SPAN * n + offset
        with int_digit_limit(limit):
            printed, want = _printed(hi - n, n)
        assert printed == want

    @pytest.mark.parametrize("lo, n, decimal", [
        (1, 64, False),
        (1, 65, True),
        (0, 65, False),
        (-200, 65, False),
        (10**30, 200, True),
        (1, _WIDE_LENGTH - 1, True),
        (1, _WIDE_LENGTH, False),
        ((_WIDE_SPAN - 1) * _WIDE_LENGTH + 1, _WIDE_LENGTH, True),
    ], ids=["short", "long", "from-zero", "negative", "huge-values", "wide-minus-one", "wide",
            "narrow-past-the-span"])
    def test_route(self, monkeypatch, lo, n, decimal):
        """A long narrow product goes through the Decimal tree, with leaves
        from _product and never the traced product_range; every other
        product is one product_range call."""
        calls = []
        real = product_range
        monkeypatch.setattr(gaps, "product_range", lambda *a: calls.append(a) or real(*a))
        got = gaps._printed_product_between(lo - 1, lo + n)
        assert isinstance(got, Decimal) == decimal
        assert calls == ([] if decimal else [(lo, lo + n)])


# With _TOOM_BITS at 64 a factor of a few hundred bits takes Toom-3 two
# or three levels deep, so the recursion and the interpolation run fast.
_LOW_TOOM_BITS = 64


@st.composite
def toom_factor(draw, k: int, length: int | None = None) -> int:
    """A signed factor (or 0) for a Toom-3 split into k-bit pieces: its
    length is 1, 2 or 3 pieces give or take a bit, and its pieces are
    random, all ones, all zeros or a power of two, where a wrong borrow
    or a wrong halving shows."""
    if length is None:
        length = draw(st.sampled_from([j * k + d for j in (1, 2, 3) for d in (-1, 0, 1)]))
    if length <= 0 or draw(st.integers(0, 15)) == 0:
        return 0
    shape = draw(st.sampled_from(["random", "ones", "power", "power+1", "pieces"]))
    if shape == "random":
        v = draw(st.integers(1 << (length - 1), (1 << length) - 1))
    elif shape == "ones":
        v = (1 << length) - 1
    elif shape == "power":
        v = 1 << (length - 1)
    elif shape == "power+1":
        v = (1 << (length - 1)) + 1
    else:
        ones = (1 << k) - 1
        pieces = draw(st.lists(st.sampled_from([0, ones, 1, 1 << (k - 1)]), min_size=4, max_size=4))
        v = sum(p << (i * k) for i, p in enumerate(pieces)) & ((1 << length) - 1)
        v |= 1 << (length - 1)
    return v * draw(st.sampled_from([1, -1]))


@st.composite
def toom_pair(draw) -> tuple[int, int]:
    k = draw(st.integers(_LOW_TOOM_BITS // 3, 400))
    a = draw(toom_factor(k))
    if draw(st.booleans()):
        b = draw(toom_factor(k))
    else:
        # Lengths just on either side of the balance guard 3n >= 2m.
        edge = -(-2 * abs(a).bit_length() // 3)
        b = draw(toom_factor(k, draw(st.integers(edge - 1, edge))))
    return a, b


class TestMul:
    @settings(max_examples=400, deadline=None)
    @given(toom_pair())
    def test_matches_the_builtin_product(self, pair):
        a, b = pair
        with mock.patch.object(gaps, "_TOOM_BITS", _LOW_TOOM_BITS):
            assert _mul(a, b) == a * b
            assert _mul(b, a) == a * b
            assert _mul(a, a) == a * a

    @pytest.mark.parametrize("n", [191, 192, 193, 575, 576, 577, 1727, 1728, 1729])
    def test_all_ones_and_powers_of_two(self, n):
        values = [(1 << n) - 1, 1 << n, (1 << n) + 1, -(1 << n) + 1]
        with mock.patch.object(gaps, "_TOOM_BITS", _LOW_TOOM_BITS):
            for a in values:
                assert _mul(a, a) == a * a
                for b in values:
                    assert _mul(a, b) == a * b

    def test_full_size_factors(self):
        """1M-bit factors, a 2M-bit square and a negative factor, at the real cutoff."""
        r = random.Random(20)
        a, b, c = r.getrandbits(10**6), r.getrandbits(10**6), r.getrandbits(2 * 10**6)
        assert _mul(a, b) == a * b
        assert _mul(c, c) == c * c
        assert _mul(-a, b) == -a * b

    def test_a_square_stays_a_square(self, monkeypatch):
        """Each of a square's five products is a square, at every level."""
        calls = []
        real = gaps._mul

        def spy(a, b):
            calls.append(a is b)
            return real(a, b)

        monkeypatch.setattr(gaps, "_TOOM_BITS", _LOW_TOOM_BITS)
        monkeypatch.setattr(gaps, "_mul", spy)
        a = 3**1000
        assert spy(a, a) == a * a
        assert len(calls) > 6 and all(calls)  # the call itself and its five squares, at least

    def test_long_products_take_toom3(self, monkeypatch):
        lo, hi = 10**6, 10**6 + 40000  # about 800K bits, by the balanced split
        calls = []
        real = gaps._toom3

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(gaps, "_toom3", counting)
        got = product_range(lo, hi)
        assert calls
        monkeypatch.setattr(gaps, "_mul", operator.mul)
        assert got == gaps._product(range(lo, hi), 0, hi - lo)

    def test_short_and_lopsided_factors_take_the_builtin(self, monkeypatch):
        def fail(*args):
            raise AssertionError("took Toom-3")

        monkeypatch.setattr(gaps, "_toom3", fail)
        bits = gaps._TOOM_BITS
        a = (1 << (3 * bits)) - 1
        short = a >> (2 * bits + 1)  # one bit below the cutoff
        lopsided = a >> (bits + 1)  # one bit below 2/3 of a's length
        assert _mul(short, short) == short * short
        assert _mul(a, lopsided) == a * lopsided
        assert _mul(-a, lopsided) == -a * lopsided

    def test_peak_memory_of_a_long_product(self):
        # About 1.9M bits by the balanced split. The builtin product alone
        # peaks at 6.4 times the result's size, and a Toom-3 that keeps
        # the factors and its partial products to the end at 5.9 times.
        # _mul peaks at 3.6 times (4.5 on Python 3.10, whose calls keep
        # their arguments alive).
        tracemalloc.start()
        try:
            got = product_range(10**6, 10**6 + 95000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = got.bit_length() / 8
        assert got.bit_length() > 1_800_000
        assert peak < 5 * size


def _read_exact(run):
    """The values of a run to print, listed under the exact context."""
    with exact():
        return list(run)


class TestRunMemory:
    """A gap sequence pairs the terms of one run as the run makes them, and
    a polynomial run makes each level as the level above reads it, so each
    call peaks at the list it returns plus a few KiB. A list of the terms,
    a shifted copy of it, or a whole list per level cost 0.8 to 2.7 MiB
    more on these calls."""

    @pytest.mark.parametrize("call", [
        lambda: gap_sequence(gap_sum_between, Linear(7, 3), 57000),
        lambda: _read_exact(decimal_gap_sequence(gap_sum_between, Linear(7, 3), 57000)),
        lambda: gap_sequence(gap_span_between, Binomial(3, 3), 19600),
        lambda: gap_sequence(gap_product_between, Linear(5, 20), 26000),
        lambda: terms(Polynomial((3, Fraction(5, 2), Fraction(7, 2))), 0, 20000),
    ], ids=["gap-sums", "decimal-gap-sums", "gap-spans", "gap-products", "polynomial-terms"])
    def test_peak_is_the_returned_list(self, call):
        tracemalloc.start()
        try:
            result = call()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result) >= 19600
        assert peak < kept + 16 * 2**10

    @pytest.mark.parametrize("make", [terms, decimal_terms], ids=["terms", "decimal-terms"])
    def test_fold_terms_are_the_walks_slice(self, make):
        """terms, and decimal_terms that prints ``terms --spec fold``, hand
        on the fresh slice of the cached walk without a copy, which doubled
        the peak (625 KiB for this 313 KiB list)."""
        make(Fold(), 0, 40000)  # grow the cached walk before measuring
        tracemalloc.start()
        try:
            result = make(Fold(), 0, 40000)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result == terms(Fold(), 0, 40000)
        assert peak < kept + 16 * 2**10


class TestClosedForms:
    def test_linear_examples(self):
        assert gap_sum_linear_closed(1, 5) == 0
        assert gap_sum_linear_closed(3, 0) == sum(range(1, 3))  # gap between 0 and 3
        assert gap_sum_linear_closed(4, 2) == sum(range(9, 12))  # gap between 8 and 12

    def test_geometric_examples(self):
        assert gap_sum_geometric_closed(2, 3) == 84
        assert gap_sum_geometric_closed(2, 0) == 0
        assert gap_sum_geometric_closed(3, 1) == sum(range(4, 9))  # gap between 3 and 9

    def test_linear_closed_matches_generic(self):
        for r in range(1, 11):
            spec = Linear(r, 0)
            for n in range(101):
                assert gap_sum_linear_closed(r, n) == gap_sum(spec, n)

    def test_geometric_closed_matches_generic(self):
        for k in range(2, 6):
            spec = Geometric(k)
            for n in range(21):
                assert gap_sum_geometric_closed(k, n) == gap_sum(spec, n)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            gap_sum_linear_closed(0, 1)
        with pytest.raises(ValueError):
            gap_sum_geometric_closed(1, 1)
        with pytest.raises(ValueError, match="got 0"):
            gap_sum_linear_closed(0, -1)  # a bad parameter is reported before the index
        # A negative index is the IndexError of gap_sum(spec, -1).
        for closed, param in ((gap_sum_linear_closed, 3), (gap_sum_geometric_closed, 2)):
            with pytest.raises(IndexError, match="^sequence index must be >= 0, got -1$"):
                closed(param, -1)


class TestOracleEquivalence:
    @pytest.mark.parametrize("spec", BATTERY, ids=str)
    def test_sum_and_product_against_enumeration(self, spec):
        for n in range(60):
            g = gap(spec, n)
            if g.length <= 10_000:
                assert gap_sum(spec, n) == brute_sum(spec, n)
                assert gap_product(spec, n) == brute_product(spec, n)

    @pytest.mark.parametrize("spec", BATTERY, ids=str)
    def test_empty_gap_conventions(self, spec):
        for n in range(60):
            a, b = term(spec, n), term(spec, n + 1)
            if b <= a + 1:
                assert gap_sum(spec, n) == 0
                assert gap_product(spec, n) == 1
            else:
                assert gap_sum_signed(spec, n) == gap_sum(spec, n)

    @pytest.mark.parametrize("spec", BATTERY, ids=str)
    def test_factorial_ratio_identity(self, spec):
        # product * a_n! == (a_(n+1) - 1)! whenever the sequence strictly grows
        import math

        for n in range(20):
            a, b = term(spec, n), term(spec, n + 1)
            if 0 <= a < b and b < 300:
                assert gap_product(spec, n) * math.factorial(a) == math.factorial(b - 1)

    @given(
        alpha=st.integers(0, 4),
        beta=st.integers(1, 5),
        r=st.integers(1, 3),
        s=st.integers(1, 3),
        n=st.integers(0, 12),
    )
    @settings(max_examples=60)
    def test_random_horadam_gap_oracle(self, alpha, beta, r, s, n):
        spec = Horadam(alpha, beta, r, s)
        g = gap(spec, n)
        if g.length <= 10_000:
            assert gap_sum(spec, n) == brute_sum(spec, n)
            assert gap_product(spec, n) == brute_product(spec, n)


class TestFigurateDecompositions:
    def test_tetrahedral_gap_sum_decomposition(self):
        from math import comb

        spec = Binomial(2, 3)
        for n in range(51):
            assert gap_sum(spec, n) == 5 * comb(n + 3, 4) + 10 * comb(n + 3, 5)

    def test_binomial_n_plus_3_choose_4_decomposition(self):
        from math import comb

        spec = Binomial(3, 4)
        for n in range(51):
            want = (
                9 * comb(n + 4, 5)
                + 36 * comb(n + 4, 6)
                + 34 * comb(n + 4, 7)
                + comb(n + 3, 7)
            )
            assert gap_sum(spec, n) == want
