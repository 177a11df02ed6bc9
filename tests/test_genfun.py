import importlib.util
import random
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapseq.gaps import gap_sequence, gap_sum_signed, gap_sum_signed_between
from gapseq.genfun import (
    Poly,
    RatFunc,
    GF_KINDS,
    horadam_gf,
    integer_coefficients,
    ratfunc,
    ratfunc_from_terms,
    ratfunc_to_text,
)
from gapseq.sequences import Horadam, terms

# The benchmark's stdlib-only oracles, which never import gapseq: their
# parser reads the text rendering back by a route of its own.
_spec = importlib.util.spec_from_file_location(
    "bench_oracles", Path(__file__).resolve().parents[1] / "bench" / "oracles.py")
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)


def parsed(text: str) -> RatFunc:
    return ratfunc(*oracles.parse_ratfunc(text))

GAP_SUM_GF_PARAMS = [
    (0, 1, 1, 1),
    (1, 1, 1, 1),
    (0, 1, 1, 2),
    (1, 1, 1, 2),
    (1, 3, 1, 2),
    (0, 1, 2, 1),
    (1, 2, 2, 1),
    (1, 2, 2, 2),
]

# Denominators up to 12, so normalized den coefficients are often not integers.
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
# Mostly those, and now and then an integer of 100 digits.
coefficients = rationals | st.integers(10**99, 10**100 - 1).map(lambda n: n * (-1) ** n)


class TestPoly:
    def test_trailing_zeros_stripped(self):
        assert Poly((1, 2, 0, 0)) == Poly((1, 2))
        assert not Poly((0, 0))
        assert Poly((0, 0)).degree == -1

    def test_arithmetic(self):
        p = Poly((1, 2))
        q = Poly((0, 1))
        assert p * q == Poly((0, 1, 2))
        assert Poly() * p == Poly()


class TestRatFuncNormalization:
    def test_gcd_cancelled(self):
        f = RatFunc(Poly((0, 1)) * Poly((1, -1)), Poly((1, -1)) * Poly((1, -2)))
        assert f == ratfunc((0, 1), (1, -2))

    def test_den_constant_one(self):
        f = RatFunc(Poly((1,)), Poly((2, 4)))
        assert f.den.coefficient(0) == 1
        assert f == ratfunc((Fraction(1, 2),), (1, 2))

    def test_zero_numerator_canonical(self):
        f = RatFunc(Poly(()), Poly((3, 1)))
        assert f.num == Poly(())
        assert f.den == Poly((1,))

    def test_long_numerator_over_a_short_denominator(self):
        """The register skips the numerator's span: a random degree-600
        numerator over 1 - x reduces at once, where a register from index
        0 would pass through huge intermediate coefficients (seconds)."""
        rng = random.Random(600)
        num = Poly(tuple(rng.randint(-9, 9) for _ in range(600)) + (1,))
        f = RatFunc(num * Poly((1, -1)), Poly((1, -1)) * Poly((1, -1)))
        assert (f.num, f.den) == (num, Poly((1, -1)))

    @pytest.mark.parametrize("num", [(1, 2, 3), (0, 2, 3)])
    def test_short_numerator_over_a_long_denominator(self, num):
        """den/num is reduced and turned over: over a random degree-300
        denominator, the register of the whole series would run through
        huge intermediate coefficients (seconds)."""
        rng = random.Random(300)
        den = Poly((1, *(rng.randint(-9, 9) for _ in range(299)), 1))
        started = time.perf_counter()
        f = RatFunc(Poly(num), den)
        elapsed = time.perf_counter() - started
        assert (f.num, f.den) == euclid_reduced(Poly(num), den)
        assert elapsed < 0.3

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            RatFunc(Poly((1,)), Poly(()))

    def test_rejects_origin_pole(self):
        with pytest.raises(ValueError):
            RatFunc(Poly((1,)), Poly((0, 1)))


class TestExpand:
    def test_geometric_gap_sum_gf(self):
        f = ratfunc((0, 3), (1, -6, 8))  # 3x / ((1-2x)(1-4x))
        assert f.expand(5) == [0, 3, 18, 84, 360]

    def test_mersenne_gap_sum_gf(self):
        num = Poly((0, 2, 1))  # x(2+x)
        den = Poly((1, -1)) * Poly((1, -2)) * Poly((1, -4))
        assert RatFunc(num, den).expand(7) == [0, 2, 15, 77, 345, 1457, 5985]

    def test_all_ones(self):
        assert ratfunc((1,), (1, -1)).expand(4) == [1, 1, 1, 1]

    def test_count_zero(self):
        assert ratfunc((1,), (1, -1)).expand(0) == []

    def test_negative_count(self):
        with pytest.raises(ValueError) as err:
            ratfunc((1,), (1, -1)).expand(-1)
        assert str(err.value) == "count must be >= 0, got -1"

    @given(
        num=st.lists(rationals, max_size=6),
        den=st.lists(rationals, min_size=1, max_size=6).filter(lambda d: d[0] != 0),
        count=st.integers(0, 60),
    )
    @example(num=[Fraction(1, 2)], den=[Fraction(3), Fraction(1, 2), Fraction(-2, 5)], count=12)
    @example(num=[], den=[Fraction(-7, 3)], count=5)
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_recurrence(self, num, den, count):
        got = ratfunc(tuple(num), tuple(den)).expand(count)
        assert got == fraction_series(num, den, count)
        assert all(isinstance(c, Fraction) for c in got)

    @pytest.mark.parametrize("a,b", [(0, 1), (2, 5), (3, -4)])
    def test_gap_sum_gf_at_benchmark_scale(self, a, b):
        spec = Horadam(a, b, 2, 2)
        expansion = horadam_gf(spec, "gapsum").expand(2300)
        assert expansion == gap_sequence(gap_sum_signed_between, spec, 2300)


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of a by b over the rationals."""
    quotient = [Fraction(0)] * max(len(a.coeffs) - len(b.coeffs) + 1, 0)
    rem = list(a.coeffs)
    while len(rem) >= len(b.coeffs):
        f = rem[-1] / b.coeffs[-1]
        pos = len(rem) - len(b.coeffs)
        quotient[pos] = f
        for i, c in enumerate(b.coeffs):
            rem[pos + i] -= f * c
        rem.pop()
    return Poly(tuple(quotient)), Poly(tuple(rem))


def euclid_reduced(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """The reference reduction: cancel the gcd, found by Euclid's algorithm
    over the rationals, then scale den(0) to 1. A zero num has gcd den."""
    a, b = num, den
    while b:
        a, b = b, poly_divmod(a, b)[1]
    num, den = (poly_divmod(p, a)[0] for p in (num, den))
    c = den.coefficient(0)
    return num.scale(1 / c), den.scale(1 / c)


def fraction_series(num, den, count):
    """Power-series coefficients of num/den by plain division in Fraction:
    c_i = (num_i - sum(den_j * c_(i-j) for j >= 1)) / den_0."""
    out = []
    for i in range(count):
        c = Fraction(num[i]) if i < len(num) else Fraction(0)
        for j in range(1, min(i, len(den) - 1) + 1):
            c -= den[j] * out[i - j]
        out.append(c / den[0])
    return out


class TestHoradamGf:
    def test_fibonacci(self):
        assert horadam_gf(Horadam(0, 1, 1, 1)) == ratfunc((0, 1), (1, -1, -1))

    def test_j_plus_2(self):
        f = horadam_gf(Horadam(1, 3, 1, 2))
        assert f == ratfunc((1, 2), (1, -1, -2))
        assert f.expand(5) == [1, 3, 5, 11, 21]

    def test_degenerate_period_two(self):
        assert horadam_gf(Horadam(1, 0, 0, 1)).expand(6) == [1, 0, 1, 0, 1, 0]

    def test_shift_resolved_via_seeds(self):
        assert horadam_gf(Horadam(0, 1, 1, 2, shift=2)) == horadam_gf(Horadam(1, 3, 1, 2))

    def test_unknown_kind_names_the_kinds(self):
        with pytest.raises(ValueError) as err:
            horadam_gf(Horadam(0, 1, 1, 1), "cube")
        assert str(err.value) == (
            "unknown gf kind 'cube'; expected one of plain, shift, square, square-shift, gapsum"
        )


class TestHoradamShiftGf:
    def test_j_plus_2(self):
        f = horadam_gf(Horadam(1, 3, 1, 2), "shift")
        assert f == ratfunc((3, 2), (1, -1, -2))
        assert f.expand(4) == [3, 5, 11, 21]

    def test_fibonacci_shift(self):
        assert horadam_gf(Horadam(0, 1, 1, 1), "shift") == ratfunc((1,), (1, -1, -1))

    def test_zero_seeds(self):
        f = horadam_gf(Horadam(0, 0, 3, 5), "shift")
        assert f.num == Poly(())


class TestHoradamSquareGf:
    def test_j_plus_2_printed_form(self):
        f = horadam_gf(Horadam(1, 3, 1, 2), "square")
        assert f == ratfunc((1, 6, -8), (1, -3, -6, 8))
        assert f.expand(5) == [1, 9, 25, 121, 441]

    def test_fibonacci_squares(self):
        f = horadam_gf(Horadam(0, 1, 1, 1), "square")
        assert f.expand(7) == [0, 1, 1, 4, 9, 25, 64]

    def test_constant_then_zero(self):
        assert horadam_gf(Horadam(1, 0, 0, 0), "square").expand(3) == [1, 0, 0]

    def test_shifted_squares_j_plus_2(self):
        f = horadam_gf(Horadam(1, 3, 1, 2), "square-shift")
        assert f == ratfunc((9, -2, -8), (1, -3, -6, 8))
        assert f.expand(4) == [9, 25, 121, 441]

    def test_shifted_squares_fibonacci(self):
        f = horadam_gf(Horadam(0, 1, 1, 1), "square-shift")
        assert f.expand(5) == [1, 1, 4, 9, 25]

    def test_shifted_squares_zero(self):
        assert horadam_gf(Horadam(0, 0, 2, 3), "square-shift").num == Poly(())


class TestHoradamGapSumGf:
    def test_1222_example(self):
        f = horadam_gf(Horadam(1, 2, 2, 2), "gapsum")
        want = RatFunc(Poly((0, 12, 3, -6)), Poly((1, -2, -2)) * Poly((1, -6, -12, 8)))
        assert f == want
        assert f.expand(7) == [0, 12, 99, 810, 6150, 46368, 347004]

    def test_fibonacci_shifted_row(self):
        f = horadam_gf(Horadam(1, 1, 1, 1), "gapsum")
        want = RatFunc(
            Poly((1, -3, -1, 1)).scale(-1), Poly((1, -1, -1)) * Poly((1, -2, -2, 1))
        )
        assert f == want
        assert f.expand(8) == [-1, 0, 0, 4, 13, 42, 119, 330]

    def test_pell_shifted_row(self):
        f = horadam_gf(Horadam(1, 2, 2, 1), "gapsum")
        want = RatFunc(Poly((0, 7, 2, -1)), Poly((1, -2, -1)) * Poly((1, -5, -5, 1)))
        assert f == want
        assert f.expand(6) == [0, 7, 51, 328, 1980, 11711]

    def test_jacobsthal_shifted_row_reduces(self):
        f = horadam_gf(Horadam(1, 1, 1, 2), "gapsum")
        want = RatFunc(Poly((1, -6)).scale(-1), Poly((1, -2)) * Poly((1, -2, -8)))
        assert f == want
        assert f.expand(8) == [-1, 2, 4, 40, 144, 672, 2624, 10880]

    @pytest.mark.parametrize("params", GAP_SUM_GF_PARAMS)
    def test_expansion_matches_signed_gap_sums(self, params):
        spec = Horadam(*params)
        expansion = horadam_gf(spec, "gapsum").expand(40)
        assert expansion == [gap_sum_signed(spec, n) for n in range(40)]


small_ints = st.integers(-4, 4)
horadam_specs = st.builds(
    Horadam, alpha=small_ints, beta=small_ints, r=small_ints, s=small_ints
)


def edge_specs(test):
    """Examples that pin the register length L against deg C: s = 0
    (Horadam(3, 5, 2, 0) has L = 2 and C = 1 - 2x), r = s = 0 (L = 2,
    C = 1) and zero seeds (L = 0, the zero series)."""
    for spec in (Horadam(3, 5, 2, 0), Horadam(3, 5, 0, 0), Horadam(0, 0, 2, 3)):
        test = example(spec=spec)(test)
    return test


class TestGfProperties:
    @edge_specs
    @given(spec=horadam_specs)
    @settings(max_examples=80)
    def test_gf_expansion_matches_recurrence(self, spec):
        assert horadam_gf(spec).expand(40) == terms(spec, 0, 40)

    @edge_specs
    @given(spec=horadam_specs)
    @settings(max_examples=80)
    def test_square_gfs_match_squared_terms(self, spec):
        window = terms(spec, 0, 41)
        assert horadam_gf(spec, "square").expand(40) == [v * v for v in window[:40]]
        assert horadam_gf(spec, "square-shift").expand(40) == [v * v for v in window[1:]]

    @edge_specs
    @given(spec=horadam_specs)
    @settings(max_examples=60)
    def test_gap_sum_gf_matches_signed_sums(self, spec):
        expansion = horadam_gf(spec, "gapsum").expand(30)
        assert expansion == [gap_sum_signed(spec, n) for n in range(30)]

    @given(
        zeros=st.integers(0, 3),
        num=st.lists(coefficients, max_size=4),
        den_tail=st.lists(coefficients, max_size=8),
        den_head=coefficients.filter(bool),
        factor=st.lists(rationals, max_size=3),
        factor_head=rationals.filter(bool),
    )
    @example(zeros=0, num=[1, -1], den_tail=[-3, 2], den_head=1, factor=[], factor_head=1)
    @example(zeros=0, num=[], den_tail=[], den_head=5, factor=[], factor_head=1)
    @example(zeros=0, num=[1, 2], den_tail=[2], den_head=1, factor=[], factor_head=1)
    @example(zeros=0, num=[1, 2], den_tail=[1, 1], den_head=-2, factor=[1], factor_head=-1)
    @example(zeros=0, num=[], den_tail=[0, 0], den_head=1, factor=[0, 0, 7], factor_head=3)
    # A short numerator over a long denominator, also divisible by x.
    @example(zeros=0, num=[3], den_tail=[1, 0, -2, 5, 1], den_head=2, factor=[1], factor_head=1)
    @example(zeros=2, num=[1, 4], den_tail=[1, 0, -2, 5], den_head=-1, factor=[], factor_head=1)
    @example(zeros=1, num=[1, 10**100], den_tail=[-(10**99) - 7, 3, 0, 1], den_head=1,
             factor=[1], factor_head=-1)
    @settings(max_examples=300, deadline=None)
    def test_normalization_invariants(self, zeros, num, den_tail, den_head, factor,
                                      factor_head):
        """RatFunc reduces to the Euclidean gcd form, a planted common factor included."""
        num = [0] * zeros + num
        planted = Poly((factor_head, *factor))
        pair = (Poly(tuple(num)) * planted, Poly((den_head, *den_tail)) * planted)
        f = RatFunc(*pair)
        assert (f.num, f.den) == euclid_reduced(*pair)
        assert f.den.coefficient(0) == 1
        assert f.expand(12) == fraction_series(num, (den_head, *den_tail), 12)
        again = RatFunc(f.num, f.den)
        assert again.num is f.num and again.den is f.den

    def test_from_terms_rejects_no_recurrence(self):
        with pytest.raises(ArithmeticError):
            ratfunc_from_terms([factorial(n) for n in range(12)])


class TestRendering:
    def test_text_form(self):
        f = horadam_gf(Horadam(1, 2, 2, 2), "gapsum")
        text = ratfunc_to_text(f)
        assert text.startswith("(12x + 3x^2 - 6x^3) / (1 - 8x - 2x^2")
        assert parsed(text) == f

    def test_half_coefficient_cleared(self):
        f = ratfunc((Fraction(1, 2),), (1, -1))
        assert ratfunc_to_text(f) == "(1) / (2 - 2x)"
        assert parsed("(1) / (2 - 2x)") == f

    def test_zero(self):
        f = ratfunc((), (1,))
        assert ratfunc_to_text(f) == "(0) / (1)"
        assert parsed("(0) / (1)") == f

    def test_unit_coefficients(self):
        f = ratfunc((0, 1), (1, -1, -1))
        assert ratfunc_to_text(f) == "(x) / (1 - x - x^2)"

    def test_integer_coefficients_preserve_value(self):
        f = horadam_gf(Horadam(0, 1, 1, 1), "gapsum")
        num, den = integer_coefficients(f)
        assert ratfunc(num, den) == f

    @pytest.mark.parametrize("params", GAP_SUM_GF_PARAMS)
    def test_round_trip_all_builders(self, params):
        spec = Horadam(*params)
        for kind in GF_KINDS:
            f = horadam_gf(spec, kind)
            assert parsed(ratfunc_to_text(f)) == f
