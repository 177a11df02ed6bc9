"""Exact binomial coefficients, Fuss-Catalan and Raney numbers, and the
closed-form gap products of arithmetic progressions a_n = k*n + r."""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from ._decimal import _shown
from .gaps import product_range
from .sequences import _index_error


def binom(n: int, k: int) -> int:
    """C(n, k); 0 outside 0 <= k <= n, and a ValueError for n < 0."""
    if n < 0:
        raise ValueError(f"upper index must be >= 0, got {_shown(n)}")
    return comb(n, k) if k >= 0 else 0


def fuss_catalan(p: int, m: int) -> int:
    """C((p+1)m, m) / (pm + 1), always an integer."""
    if p < 0 or m < 0:
        raise ValueError("fuss_catalan arguments must be >= 0")
    q, rem = divmod(binom((p + 1) * m, m), p * m + 1)
    if rem:
        raise ArithmeticError(f"fuss_catalan({p}, {m}): divisibility failed")
    return q


def raney(p: int, r: int, n: int) -> Fraction:
    """r / (pn + r) * C(pn + r, n) as an exact rational.

    Integral for many parameter choices but not all of them, so callers
    that need an integer convert with ``as_integer``.
    """
    if r < 1:
        raise ValueError(f"raney weight r must be >= 1, got {_shown(r)}")
    if p < 0 or n < 0:
        raise ValueError("raney p and n must be >= 0")
    return Fraction(r, p * n + r) * binom(p * n + r, n)


def as_integer(x: Fraction) -> int:
    """The integer a rational denotes; raises if it is not whole."""
    if x.denominator != 1:
        raise ValueError(f"{_shown(x)} is not an integer")
    return x.numerator


def gap_product_closed(k: int, r: int, n: int) -> int:
    """Gap product of a_n = k*n + r: the k-1 integers above k*n + r multiplied out."""
    if k < 1:
        raise ValueError(f"slope k must be >= 1, got {_shown(k)}")
    if r < 1:
        raise ValueError(f"intercept r must be >= 1, got {_shown(r)}")
    if n < 0:
        raise _index_error(n)
    base = k * n + r
    return product_range(base + 1, base + k)


def fc_identity_sides(k: int, n: int) -> tuple[int, int]:
    """Both sides of P_n(kn+1) = k! * fuss_catalan(n, k), left then right."""
    return gap_product_closed(k, 1, n), factorial(k) * fuss_catalan(n, k)


def raney_identity_sides(k: int, r: int, n: int) -> tuple[int, Fraction]:
    """Both sides of P_n(kn+r) = (k!/r) * raney(n+1, r, k), left then right."""
    return gap_product_closed(k, r, n), Fraction(factorial(k), r) * raney(n + 1, r, k)


def check_fc_identity(k: int, n: int) -> bool:
    """Whether the gap product of k*n + 1 equals k! * fuss_catalan(n, k)."""
    lhs, rhs = fc_identity_sides(k, n)
    return lhs == rhs


def check_raney_identity(k: int, r: int, n: int) -> bool:
    """Whether the gap product of k*n + r equals (k!/r) * raney(n+1, r, k)."""
    lhs, rhs = raney_identity_sides(k, r, n)
    return lhs == rhs
