import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapseq.sequences import (
    FIBONACCI,
    JACOBSTHAL,
    PELL,
    Binomial,
    Explicit,
    Geometric,
    Horadam,
    Linear,
    Polynomial,
    Primes,
    SpecError,
    nth_prime,
    term,
    terms,
)

HALF = Fraction(1, 2)


class TestTerm:
    def test_horadam_j_plus_2(self):
        assert term(Horadam(1, 3, 1, 2), 3) == 11

    def test_constant_linear(self):
        assert term(Linear(0, 7), 100) == 7

    def test_primes(self):
        assert term(Primes(), 4) == 11

    def test_polynomial(self):
        assert term(Polynomial((0, 0, 2)), 3) == 18

    def test_geometric_offset(self):
        assert [term(Geometric(2, -1), n) for n in range(5)] == [0, 1, 3, 7, 15]

    def test_binomial(self):
        assert [term(Binomial(2, 3), n) for n in range(6)] == [0, 1, 4, 10, 20, 35]

    def test_negative_index(self):
        with pytest.raises(IndexError):
            term(Primes(), -1)


class TestTerms:
    def test_fibonacci(self):
        assert terms(Horadam(0, 1, 1, 1), 0, 8) == [0, 1, 1, 2, 3, 5, 8, 13]

    def test_explicit_slice(self):
        assert terms(Explicit((1, 2, 3)), 1, 2) == [2, 3]

    def test_horadam_1222(self):
        assert terms(Horadam(1, 2, 2, 2), 0, 7) == [1, 2, 6, 16, 44, 120, 328]

    def test_window_matches_term(self):
        spec = Horadam(2, -1, 3, -2, shift=1)
        assert terms(spec, 5, 10) == [term(spec, n) for n in range(5, 15)]

    def test_count_zero(self):
        assert terms(Primes(), 3, 0) == []

    def test_negative_count(self):
        with pytest.raises(ValueError):
            terms(Primes(), 0, -1)


class TestNthPrime:
    def test_small(self):
        assert nth_prime(0) == 2
        assert nth_prime(1) == 3
        assert nth_prime(14) == 47

    def test_negative_rejected(self):
        with pytest.raises(IndexError, match=r"^prime index must be >= 0, got -1$"):
            nth_prime(-1)

    def test_first_fifteen(self):
        want = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
        assert [nth_prime(n) for n in range(15)] == want

    def test_trial_division_and_monotone(self):
        def is_prime(v: int) -> bool:
            if v < 2:
                return False
            f = 2
            while f * f <= v:
                if v % f == 0:
                    return False
                f += 1
            return True

        values = [nth_prime(n) for n in range(201)]
        assert all(is_prime(v) for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))


class TestValidation:
    def test_linear_negative_slope(self):
        with pytest.raises(SpecError):
            Linear(-1, 0)

    def test_geometric_small_base(self):
        with pytest.raises(SpecError):
            Geometric(1)

    def test_binomial_bad_params(self):
        with pytest.raises(SpecError):
            Binomial(-1, 2)
        with pytest.raises(SpecError):
            Binomial(0, 0)

    def test_horadam_negative_shift(self):
        with pytest.raises(SpecError):
            Horadam(0, 1, 1, 1, shift=-1)

    def test_explicit_too_short(self):
        with pytest.raises(SpecError):
            Explicit((1,))

    @pytest.mark.parametrize("bad", [1.5, Fraction(3, 2), "7"], ids=["float", "fraction", "str"])
    def test_explicit_rejects_non_integer_terms(self, bad):
        with pytest.raises(SpecError, match=f"explicit term is not an integer: {re.escape(repr(bad))}$"):
            Explicit((1, bad, 3))

    def test_explicit_keeps_integer_terms(self):
        spec = Explicit([-4, True, 10**30])
        assert spec.terms == (-4, 1, 10**30)
        assert all(type(t) is int for t in spec.terms)

    @pytest.mark.parametrize("cls, field, bad", [
        (Linear, "k", 0.5), (Linear, "r", Fraction(1, 2)),
        (Geometric, "k", 2.5), (Geometric, "offset", "7"),
        (Binomial, "shift", 0.5), (Binomial, "lower", 2.0),
        (Horadam, "alpha", 0.0), (Horadam, "beta", None), (Horadam, "r", 1.5),
        (Horadam, "s", Fraction(2)), (Horadam, "shift", 1.0),
    ])
    def test_integer_fields_reject_non_integers(self, cls, field, bad):
        valid = {Linear: (1, 0), Geometric: (2, 0), Binomial: (0, 2), Horadam: (0, 1, 1, 1, 0)}
        fields = dict(zip(cls.__match_args__, valid[cls]), **{field: bad})
        message = f"{cls.__name__.lower()} field {field} is not an integer: {bad!r}"
        with pytest.raises(SpecError, match=f"^{re.escape(message)}$"):
            cls(**fields)

    def test_integer_fields_become_exact_ints(self):
        class Five:
            def __index__(self):
                return 5

        specs = [Linear(True, Five()), Geometric(Five(), False), Binomial(Five(), True),
                 Horadam(False, True, Five(), 2, shift=Five())]
        assert specs == [Linear(1, 5), Geometric(5, 0), Binomial(5, 1), Horadam(0, 1, 5, 2, 5)]
        assert all(type(getattr(spec, name)) is int
                   for spec in specs for name in spec.__match_args__)
        assert terms(specs[0], 0, 3) == [5, 6, 7]

    def test_explicit_out_of_range(self):
        with pytest.raises(IndexError):
            term(Explicit((1, 2, 3)), 3)
        with pytest.raises(IndexError):
            terms(Explicit((1, 2, 3)), 1, 3)

    def test_polynomial_integer_valued_accepts_triangular(self):
        spec = Polynomial((0, HALF, HALF))
        assert [term(spec, n) for n in range(6)] == [0, 1, 3, 6, 10, 15]

    def test_polynomial_rejects_non_integer_valued(self):
        with pytest.raises(SpecError):
            Polynomial((HALF,))
        with pytest.raises(SpecError):
            Polynomial((0, Fraction(1, 3)))

    def test_polynomial_rejects_non_integer_mixed(self):
        # integer at n=0 but not at n=1
        with pytest.raises(SpecError):
            Polynomial((1, Fraction(3, 2)))


class TestAliases:
    def test_named_specs(self):
        assert FIBONACCI == Horadam(0, 1, 1, 1)
        assert JACOBSTHAL == Horadam(0, 1, 1, 2)
        assert PELL == Horadam(0, 1, 2, 1)

    def test_jacobsthal_shift_two_equals_reseeded(self):
        shifted = Horadam(0, 1, 1, 2, shift=2)
        assert terms(shifted, 0, 8) == terms(Horadam(1, 3, 1, 2), 0, 8)
        assert terms(shifted, 0, 8) == [1, 3, 5, 11, 21, 43, 85, 171]


horadam_specs = st.builds(
    Horadam,
    alpha=st.integers(-5, 5),
    beta=st.integers(-5, 5),
    r=st.integers(-3, 3),
    s=st.integers(-3, 3),
    shift=st.integers(0, 3),
)


class TestProperties:
    @given(spec=horadam_specs)
    def test_horadam_recurrence(self, spec):
        window = terms(spec, 0, 52)
        for n in range(2, 52):
            assert window[n] == spec.r * window[n - 1] + spec.s * window[n - 2]

    @given(
        alpha=st.integers(-5, 5),
        beta=st.integers(-5, 5),
        r=st.integers(-3, 3),
        s=st.integers(-3, 3),
        shift=st.integers(0, 5),
    )
    @settings(max_examples=50)
    def test_shift_coherence(self, alpha, beta, r, s, shift):
        shifted = Horadam(alpha, beta, r, s, shift=shift)
        base = Horadam(alpha, beta, r, s)
        for n in range(0, 51, 10):
            assert term(shifted, n) == term(base, n + shift)

    def test_polynomial_matches_explicit(self):
        squares_doubled = Explicit((0, 2, 8, 18, 32, 50, 72, 98, 128, 162))
        spec = Polynomial((0, 0, 2))
        assert terms(spec, 0, 10) == list(squares_doubled.terms)
