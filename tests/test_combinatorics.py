import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapseq.combinatorics import (
    as_integer,
    binom,
    check_fc_identity,
    check_raney_identity,
    fuss_catalan,
    gap_product_closed,
    raney,
)
from gapseq.gaps import gap_product
from gapseq.sequences import Linear

from conftest import int_digit_limit


class TestBinom:
    def test_examples(self):
        assert binom(6, 3) == 20
        assert binom(10, 2) == 45
        assert binom(3, 5) == 0
        assert binom(4, -1) == 0

    def test_negative_upper_rejected(self):
        with pytest.raises(ValueError):
            binom(-1, 0)

    @pytest.mark.parametrize("n,k", [(-1, -1), (-1, 2), (-5, 10)])
    def test_negative_upper_rejected_whatever_k(self, n, k):
        with pytest.raises(ValueError, match="upper index"):
            binom(n, k)

    @pytest.mark.parametrize(
        "n,k,want",
        [(0, 0, 1), (0, 1, 0), (0, -1, 0), (7, 0, 1), (7, 7, 1), (7, 8, 0),
         (7, -3, 0), (10**6, 1, 10**6), (10**6, 10**6 - 1, 10**6)],
    )
    def test_edges(self, n, k, want):
        assert binom(n, k) == want

    def test_pascal_rule(self):
        for n in range(1, 60):
            for k in range(-2, n + 3):
                assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)

    @given(n=st.integers(0, 300), k=st.integers(-5, 305))
    def test_matches_math_comb(self, n, k):
        want = math.comb(n, k) if 0 <= k <= n else 0
        assert binom(n, k) == want


def catalan_by_convolution(m: int) -> int:
    # C(0) = 1, C(m+1) = sum C(i) C(m-i): independent of the binomial route
    values = [1]
    for _ in range(m):
        values.append(sum(values[i] * values[-1 - i] for i in range(len(values))))
    return values[m]


class TestFussCatalan:
    def test_examples(self):
        assert fuss_catalan(1, 3) == 5
        assert fuss_catalan(2, 3) == 12
        assert fuss_catalan(4, 2) == 5
        assert all(fuss_catalan(p, 0) == 1 for p in range(8))

    def test_catalan_column(self):
        for m in range(13):
            assert fuss_catalan(1, m) == math.comb(2 * m, m) // (m + 1)
            assert fuss_catalan(1, m) == catalan_by_convolution(m)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            fuss_catalan(-1, 2)


class TestRaney:
    def test_n_zero_is_one(self):
        for p in range(6):
            for r in range(1, 6):
                assert raney(p, r, 0) == 1

    def test_examples(self):
        assert raney(3, 2, 1) == 2
        assert raney(2, 2, 2) == 5

    def test_rewrite_for_r_equal_2(self):
        for p in range(1, 7):
            for n in range(11):
                lhs = raney(p, 2, n)
                rhs = Fraction(2, (p - 1) * n + 2) * binom(p * n + 1, n)
                assert lhs == rhs

    def test_returns_exact_rational(self):
        value = raney(2, 3, 1)  # 3/5 * C(5,1) = 3
        assert isinstance(value, Fraction)
        assert value == 3

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            raney(2, 0, 1)

    @pytest.mark.parametrize("p,r,n", [(-1, 1, 1), (1, 1, -1)])
    def test_rejects_negative_p_or_n(self, p, r, n):
        with pytest.raises(ValueError, match=r"^raney p and n must be >= 0$"):
            raney(p, r, n)


class TestAsInteger:
    def test_whole(self):
        assert as_integer(Fraction(5)) == 5

    def test_not_whole(self):
        with pytest.raises(ValueError, match=r"^1/2 is not an integer$"):
            as_integer(Fraction(1, 2))

    def test_not_whole_past_the_digit_limit(self, limit_untouched):
        # Its own message, not str()'s refusal of a 5001-digit numerator,
        # with the number cut to 40 characters.
        x = Fraction(10**5000 + 1, 2)
        with int_digit_limit(4300), pytest.raises(ValueError) as info:
            as_integer(x)
        assert str(info.value) == "1" + "0" * 39 + "... of 5003 characters is not an integer"


class TestGapProductClosed:
    def test_examples(self):
        assert gap_product_closed(3, 1, 2) == 72
        assert gap_product_closed(4, 2, 1) == 504
        assert gap_product_closed(1, 5, 9) == 1
        assert gap_product_closed(4, 1, 3) == 3360

    def test_oracle_enumeration_4_1_3(self):
        assert gap_product_closed(4, 1, 3) == 14 * 15 * 16

    def test_matches_gap_product_of_linear(self):
        for k in range(1, 7):
            for r in range(1, 5):
                spec = Linear(k, r)
                for n in range(21):
                    assert gap_product_closed(k, r, n) == gap_product(spec, n)

    def test_binomial_route(self):
        # k!/(kn+r) * C(k(n+1)+r-1, k) is the same number
        for k in range(1, 6):
            for r in range(1, 4):
                for n in range(8):
                    alt = Fraction(math.factorial(k), k * n + r) * binom(
                        k * (n + 1) + r - 1, k
                    )
                    assert gap_product_closed(k, r, n) == as_integer(alt)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            gap_product_closed(0, 1, 1)
        with pytest.raises(ValueError):
            gap_product_closed(2, 0, 1)
        with pytest.raises(ValueError, match="got 0"):
            gap_product_closed(0, 1, -1)  # a bad parameter is reported before the index
        with pytest.raises(IndexError, match="^sequence index must be >= 0, got -1$"):
            gap_product_closed(2, 1, -1)


class TestIdentities:
    def test_fc_examples(self):
        assert check_fc_identity(3, 1)  # 30 == 6 * 5
        assert check_fc_identity(5, 1)  # 5040 == 120 * 42
        assert all(check_fc_identity(1, n) for n in range(10))

    def test_fc_sweep(self):
        assert all(check_fc_identity(k, n) for k in range(1, 7) for n in range(9))

    def test_raney_examples(self):
        assert check_raney_identity(2, 2, 1)  # 5 == 1 * raney(2,2,2)
        assert check_raney_identity(2, 1, 3)  # 8 == 2 * raney(4,1,2)
        assert all(check_raney_identity(1, 1, n) for n in range(6))

    def test_raney_sweep(self):
        assert all(
            check_raney_identity(k, r, n)
            for k in range(1, 6)
            for r in range(1, k + 2)
            for n in range(7)
        )

    @given(k=st.integers(1, 8), r=st.integers(1, 8), n=st.integers(0, 12))
    @settings(max_examples=80)
    def test_identities_hold_generally(self, k, r, n):
        assert check_fc_identity(k, n)
        assert check_raney_identity(k, r, n)


class TestRowIdentification:
    def test_fc_rows_from_products(self):
        published = {
            1: [1, 1, 1, 1, 1, 1, 1],
            2: [1, 2, 3, 4, 5, 6, 7],
            3: [1, 5, 12, 22, 35, 51, 70],
            4: [1, 14, 55, 140, 285, 506, 819],
            5: [1, 42, 273, 969, 2530, 5481, 10472],
        }
        for k, row in published.items():
            computed = [
                gap_product_closed(k, 1, n) // math.factorial(k) for n in range(7)
            ]
            assert computed == row
            assert computed == [fuss_catalan(n, k) for n in range(7)]
