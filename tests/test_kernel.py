"""Differential tests pinning the one-pass kernel to references written here.

``term(spec, n)`` is the run of one of the dispatch that ``terms`` uses,
so ``TestTermMatchesReference`` pins it, family by family, to a formula
written in the tests, and ``TestHoradamJump`` pins the Horadam jump to a
plain recurrence loop. ``TestTermsMatchTerm`` then pins the stepping loops
of ``terms`` to those per-index values. ``gap_sequence`` derives every gap
statistic from consecutive pairs of one ``terms`` list; it must agree
exactly with the per-n public functions of ``gaps``, which read their pair
from ``terms(spec, n, 2)`` and are pinned to ``term`` here too.
"""

import re

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapseq.folding import descent_marker
from gapseq.gaps import (
    gap,
    gap_between,
    gap_product,
    gap_product_between,
    gap_sequence,
    gap_sum,
    gap_sum_abs,
    gap_sum_abs_between,
    gap_sum_between,
    gap_sum_signed,
    gap_sum_signed_between,
)
from gapseq.sequences import (
    Binomial,
    Explicit,
    Fold,
    Geometric,
    Horadam,
    Linear,
    Polynomial,
    Primes,
    term,
    terms,
)

from test_bulk_tables import PRIMES, WALK, fresh_caches

STATS = [
    (gap_between, gap),
    (gap_sum_between, gap_sum),
    (gap_sum_signed_between, gap_sum_signed),
    (gap_sum_abs_between, gap_sum_abs),
    (gap_product_between, gap_product),
]


def _newton_to_monomial(newton: list[int]) -> tuple[Fraction, ...]:
    """Monomial coefficients of sum_j newton[j] * C(n, j)."""
    out = [Fraction(0)] * max(len(newton), 1)
    basis = [Fraction(1)]  # C(n, j) in the monomial basis, j = 0
    for j, d in enumerate(newton):
        for i, c in enumerate(basis):
            out[i] += d * c
        # C(n, j+1) = C(n, j) * (n - j) / (j + 1)
        nxt = [Fraction(0)] * (len(basis) + 1)
        for i, c in enumerate(basis):
            nxt[i + 1] += c / (j + 1)
            nxt[i] -= c * j / (j + 1)
        basis = nxt
    return tuple(out)


ints = st.integers(-30, 30)
horadams = st.builds(
    Horadam, ints, ints, st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 12)
)
# Integer-valued polynomials with non-integer monomial coefficients in general.
polynomials = st.lists(st.integers(-9, 9), min_size=0, max_size=5).map(
    lambda d: Polynomial(_newton_to_monomial(d))
)
unbounded_specs = st.one_of(
    st.builds(Linear, st.integers(0, 20), ints),
    st.builds(Geometric, st.integers(2, 5), st.integers(-100, 100)),
    polynomials,
    st.builds(Binomial, st.integers(0, 10), st.integers(1, 5)),
    horadams,
    st.just(Primes()),
    st.just(Fold()),
)
explicits = st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=40).map(
    lambda v: Explicit(tuple(v))
)


@st.composite
def windows(draw, stats_room: int = 0):
    """(spec, n0, count) with every index of the window in range."""
    spec = draw(st.one_of(unbounded_specs, explicits))
    if isinstance(spec, Explicit):
        n0 = draw(st.integers(0, len(spec.terms) - 1 - stats_room))
        count = draw(st.integers(0, len(spec.terms) - n0 - stats_room))
    else:
        n0 = draw(st.integers(0, 300))
        count = draw(st.integers(0, 40))
    return spec, n0, count


class TestTermMatchesReference:
    @given(st.integers(0, 20), ints, st.integers(0, 10**6))
    def test_linear(self, k, r, n):
        assert term(Linear(k, r), n) == k * n + r

    @given(st.integers(2, 9), st.integers(-100, 100), st.integers(0, 400))
    def test_geometric(self, k, offset, n):
        assert term(Geometric(k, offset), n) == k**n + offset

    @given(st.integers(0, 10), st.integers(1, 8), st.integers(0, 400))
    def test_binomial(self, shift, lower, n):
        assert term(Binomial(shift, lower), n) == comb(n + shift, lower)

    @settings(deadline=None)
    @given(polynomials, st.integers(0, 10**4))
    def test_polynomial(self, spec, n):
        want = sum(Fraction(c) * n**i for i, c in enumerate(spec.coeffs))
        assert want.denominator == 1
        assert term(spec, n) == want

    def test_primes_by_trial_division(self):
        with fresh_caches():  # the first call, the largest index, sieves
            assert [term(Primes(), n) for n in reversed(range(len(PRIMES)))] == PRIMES[::-1]

    def test_fold_by_recurrence(self):
        with fresh_caches():
            assert [term(Fold(), n) for n in reversed(range(len(WALK)))] == WALK[::-1]

    @given(explicits)
    def test_explicit_by_tuple_index(self, spec):
        assert [term(spec, n) for n in range(len(spec.terms))] == list(spec.terms)

    @pytest.mark.parametrize("spec", [
        Linear(1, 0), Geometric(2), Polynomial((1, 1)), Binomial(0, 1),
        Horadam(0, 1, 1, 1), Primes(), Fold(), Explicit((1, 2, 3)),
    ])
    def test_negative_index_error_text(self, spec):
        with pytest.raises(IndexError, match=re.escape("sequence index must be >= 0, got -1")):
            term(spec, -1)

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_explicit_overrun_error_text(self, n):
        message = f"explicit sequence has 3 terms, index {n} is out of range"
        with pytest.raises(IndexError, match=re.escape(message)):
            term(Explicit((1, 2, 3)), n)

    @pytest.mark.parametrize("spec", [(1, 2), None, Fraction(1, 2)])
    def test_not_a_spec_error_text(self, spec):
        with pytest.raises(TypeError, match=re.escape(f"not a sequence spec: {spec!r}")):
            term(spec, 0)


class TestTermsMatchTerm:
    @settings(max_examples=400, deadline=None)
    @given(windows())
    def test_every_family(self, window):
        spec, n0, count = window
        assert terms(spec, n0, count) == [term(spec, n0 + i) for i in range(count)]

    def test_polynomial_window_shorter_than_degree(self):
        spec = Polynomial(_newton_to_monomial([1, -2, 3, 5, -7]))
        for count in range(6):
            assert terms(spec, 9, count) == [term(spec, 9 + i) for i in range(count)]

    def test_rational_polynomial(self):
        triangular = Polynomial((0, Fraction(1, 2), Fraction(1, 2)))
        assert terms(triangular, 10, 4) == [55, 66, 78, 91]

    def test_zero_polynomial(self):
        assert terms(Polynomial((0,)), 3, 3) == [0, 0, 0]

    def test_primes_window(self):
        assert terms(Primes(), 5, 5) == [13, 17, 19, 23, 29]

    def test_explicit_overrun_names_first_missing_index(self):
        with pytest.raises(IndexError, match="index 3 is out of range"):
            terms(Explicit((1, 2, 3)), 1, 5)
        with pytest.raises(IndexError, match="index 7 is out of range"):
            terms(Explicit((1, 2, 3)), 7, 1)


def _product_count(spec, count: int, budget: int = 20_000) -> int:
    """The longest prefix of the first count gaps with at most budget elements
    in all, so exponential families stay cheap in the product check."""
    values = terms(spec, 0, count + 1)
    total = 0
    for n in range(count):
        total += max(values[n + 1] - values[n] - 1, 0)
        if total > budget:
            return n
    return count


class TestBatchedGapsMatchPerN:
    @settings(max_examples=300, deadline=None)
    @given(windows(stats_room=1))
    def test_every_statistic(self, window):
        spec, _, count = window
        for pair_stat, per_n in STATS:
            if pair_stat is gap_product_between:
                count = _product_count(spec, count)
            assert gap_sequence(pair_stat, spec, count) == [
                per_n(spec, n) for n in range(count)
            ]

    @pytest.mark.parametrize("count", [-1, -5])
    def test_negative_count_error_text(self, count):
        with pytest.raises(ValueError, match=re.escape(f"count must be >= 0, got {count}")):
            gap_sequence(gap_sum_between, Linear(1, 0), count)


class TestPerNReadsTermPair:
    @settings(max_examples=300, deadline=None)
    @given(windows(stats_room=1))
    def test_every_statistic(self, window):
        spec, n0, count = window
        for n in range(n0, n0 + min(count, 2)):
            a, b = term(spec, n), term(spec, n + 1)
            for pair_stat, per_n in STATS:
                if pair_stat is gap_product_between and b - a - 1 > 20_000:
                    continue
                assert per_n(spec, n) == pair_stat(a, b)
            assert descent_marker(spec, n) == (2 * a - 1 if b - a == -1 else 0)

    @pytest.mark.parametrize("per_n", [f for _, f in STATS] + [descent_marker])
    @pytest.mark.parametrize("n,missing", [(2, 3), (3, 3), (7, 7)])
    def test_explicit_overrun_error_text(self, per_n, n, missing):
        message = f"explicit sequence has 3 terms, index {missing} is out of range"
        with pytest.raises(IndexError, match=re.escape(message)):
            per_n(Explicit((1, 2, 3)), n)

    @pytest.mark.parametrize("per_n", [f for _, f in STATS] + [descent_marker])
    def test_negative_index_error_text(self, per_n):
        with pytest.raises(IndexError, match=re.escape("sequence index must be >= 0, got -1")):
            per_n(Linear(1, 0), -1)


def _horadam_loop(spec: Horadam, count: int) -> list[int]:
    a, b = spec.alpha, spec.beta
    out = []
    for i in range(spec.shift + count):
        if i >= spec.shift:
            out.append(a)
        a, b = b, spec.r * b + spec.s * a
    return out


class TestHoradamJump:
    @pytest.mark.parametrize(
        "spec",
        [
            Horadam(0, 1, 1, 1),
            Horadam(2, -3, -1, 2, 5),
            Horadam(-4, 7, 2, -1, 3),
            Horadam(1, 1, 0, 0),
            Horadam(5, -2, -3, -2, 1),
        ],
    )
    def test_every_index_to_3000(self, spec):
        want = _horadam_loop(spec, 3000)
        assert [term(spec, n) for n in range(3000)] == want
        assert terms(spec, 2345, 655) == want[2345:]

    @settings(max_examples=100, deadline=None)
    @given(horadams, st.integers(0, 4000))
    def test_random_index(self, spec, n):
        assert term(spec, n) == _horadam_loop(spec, n + 1)[n]

    def test_far_fibonacci_identity(self):
        # F(2n) = F(n) * (2 F(n+1) - F(n)), checked far beyond the loop range
        fib = Horadam(0, 1, 1, 1)
        n = 50_000
        assert term(fib, 2 * n) == term(fib, n) * (2 * term(fib, n + 1) - term(fib, n))


def test_binomial_window_matches_comb():
    assert terms(Binomial(3, 2), 4, 3) == [comb(7, 2), comb(8, 2), comb(9, 2)]
