"""Gaps between consecutive sequence terms, their sums and their products.

The n-th gap is the run of consecutive integers strictly between a_n and
a_(n+1). Three sum variants exist: ``gap_sum`` clamps to 0 on empty gaps,
``gap_sum_signed`` evaluates the closed form without clamping (negative at
descents), and ``gap_sum_abs`` sums a_n + j over j = 1 .. |a_(n+1)-a_n-1|.
``gap_sequence`` computes any of them for n = 0 .. count-1 in one pass;
``decimal_gap_sequence`` gives the same sums as exact Decimals to print.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod
from typing import Callable, TypeVar

from ._decimal import exact
from .sequences import SeqSpec, decimal_terms, terms

T = TypeVar("T")


@dataclass(frozen=True)
class Gap:
    """The consecutive integers strictly between a_n and a_(n+1).

    ``start`` is a_n + 1 even when the gap is empty; ``length`` clamps
    to 0 whenever the step a_(n+1) - a_n is at most 1. The field order
    is the key order of each gap in ``gapseq gaps --format json``,
    between ``n`` and ``elements``.
    """

    start: int
    length: int

    @property
    def elements(self) -> range:
        return range(self.start, self.start + self.length)


# Each statistic is one pure function of a consecutive pair (a, b) =
# (a_n, a_(n+1)). The per-n functions below (on the pair terms(spec, n, 2),
# one O(log n) jump for Horadam) and ``gap_sequence`` both apply these, so
# the arithmetic exists once.


def gap_span_between(a: int, b: int) -> tuple[int, int]:
    """(start, length) of the integers strictly between a and b: the
    fields of ``gap_between`` without building a Gap."""
    return a + 1, max(b - a - 1, 0)


def gap_between(a: int, b: int) -> Gap:
    """The integers strictly between a and b."""
    return Gap(*gap_span_between(a, b))


def gap_sum_between(a: int, b: int) -> int:
    """Sum of the integers strictly between a and b; 0 when there are none."""
    if b <= a + 1:
        return 0
    return (b - a - 1) * (a + b) // 2


def gap_sum_signed_between(a: int, b: int) -> int:
    """(b - a - 1)(a + b) / 2 without clamping, so negative when b < a.

    The product equals b^2 - a^2 - a - b, which is always even, so the
    halving is exact.
    """
    return (b - a - 1) * (a + b) // 2


def gap_sum_abs_between(a: int, b: int) -> int:
    """Sum of a + j for j = 1 .. |b - a - 1|."""
    width = abs(b - a - 1)
    return width * a + width * (width + 1) // 2


def gap_product_between(a: int, b: int) -> int:
    """Product of the integers strictly between a and b; 1 when there are none."""
    return product_range(a + 1, b)


def gap_sequence(stat: Callable[[int, int], T], spec: SeqSpec, count: int) -> list[T]:
    """stat(a_n, a_(n+1)) for n = 0 .. count-1, from one pass over the terms."""
    values = terms(spec, 0, count + 1)
    return list(map(stat, values, values[1:]))


def decimal_gap_sequence(stat: Callable[[int, int], int], spec: SeqSpec, count: int) -> list:
    """The values of ``gap_sequence(stat, spec, count)``, ready to print,
    for a stat of plain arithmetic (the gap sums).

    stat runs on ``decimal_terms``, so the sums of Horadam and geometric
    terms are exact Decimals, whose ``str`` is linear where an int's is
    quadratic. The unary plus turns a Decimal negative zero, as in the
    signed sum 0 * -97 // 2, into 0.
    """
    with exact():
        values = decimal_terms(spec, 0, count + 1)
        return [+v for v in map(stat, values, values[1:])]


def gap(spec: SeqSpec, n: int) -> Gap:
    """The n-th gap of the sequence described by spec."""
    return gap_between(*terms(spec, n, 2))


def gap_sum(spec: SeqSpec, n: int) -> int:
    """Sum of the n-th gap's elements; 0 when the gap is empty."""
    return gap_sum_between(*terms(spec, n, 2))


def gap_sum_signed(spec: SeqSpec, n: int) -> int:
    """(a_(n+1) - a_n - 1)(a_n + a_(n+1)) / 2 without clamping; negative at descents."""
    return gap_sum_signed_between(*terms(spec, n, 2))


def gap_sum_abs(spec: SeqSpec, n: int) -> int:
    """Sum of a_n + j for j = 1 .. |a_(n+1) - a_n - 1|."""
    return gap_sum_abs_between(*terms(spec, n, 2))


def gap_product(spec: SeqSpec, n: int) -> int:
    """Product of the n-th gap's elements; 1 when the gap is empty.

    Multiplies the ``length`` consecutive integers starting at a_n + 1
    rather than forming the factorial ratio (a_(n+1)-1)!/a_n!, so it
    stays cheap when the terms themselves are huge.
    """
    return gap_product_between(*terms(spec, n, 2))


def product_range(lo: int, hi: int) -> int:
    """Product of the integers in [lo, hi); 1 when empty.

    Long ranges are split in half so partial products stay balanced in
    size, which is much faster than a running product once the result
    reaches thousands of bits.
    """
    n = hi - lo
    if n <= 64:
        return prod(range(lo, hi))
    mid = lo + n // 2
    return product_range(lo, mid) * product_range(mid, hi)


def gap_sum_linear_closed(r: int, n: int) -> int:
    """Gap-sum of a_n = r*n in closed form: (2n+1) * C(r, 2)."""
    if r < 1:
        raise ValueError(f"slope must be >= 1, got {r}")
    return (2 * n + 1) * comb(r, 2)


def gap_sum_geometric_closed(k: int, n: int) -> int:
    """Gap-sum of a_n = k**n in closed form: ((k^2-1)k^(2n) - (k+1)k^n) / 2."""
    if k < 2:
        raise ValueError(f"base must be >= 2, got {k}")
    return ((k * k - 1) * k ** (2 * n) - (k + 1) * k**n) // 2
