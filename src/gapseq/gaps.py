"""Gaps between consecutive sequence terms, their sums and their products.

The n-th gap is the run of consecutive integers strictly between a_n and
a_(n+1). Three sum variants exist: ``gap_sum`` clamps to 0 on empty gaps,
``gap_sum_signed`` evaluates the closed form without clamping (negative at
descents), and ``gap_sum_abs`` sums a_n + j over j = 1 .. |a_(n+1)-a_n-1|.
``gap_sequence`` computes any of them for n = 0 .. count-1 in one pass;
``decimal_gap_sequence`` gives the same sums as exact Decimals to print.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Iterator, Sequence
from math import comb, isqrt, prod

from ._decimal import exact, show
from ._record import record
from .sequences import SeqSpec, _check_count, _index_error, _sieve, decimal_terms, terms


@record
class Gap:
    """The consecutive integers strictly between a_n and a_(n+1).

    ``start`` is a_n + 1 even when the gap is empty; ``length`` clamps
    to 0 whenever the step a_(n+1) - a_n is at most 1.
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


def gap_sequence(stat: Callable[[int, int], object], spec: SeqSpec, count: int) -> list:
    """stat(a_n, a_(n+1)) for n = 0 .. count-1, from one pass over the terms."""
    values = terms(spec, 0, _check_count(count) + 1)
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
        values = decimal_terms(spec, 0, _check_count(count) + 1)
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
    through ``product_range``, which never divides factorials, so it
    stays cheap when the terms themselves are huge.
    """
    return gap_product_between(*terms(spec, n, 2))


# A range of at least _WIDE_LENGTH integers in [1, _WIDE_SPAN * length]
# is multiplied from prime exponents; the constants come from a measured
# crossover table (README.md, "Performance").
_WIDE_LENGTH = 2**14
_WIDE_SPAN = 8


def product_range(lo: int, hi: int) -> int:
    """Product of the integers in [lo, hi); 1 when empty.

    Long ranges are split in half so partial products stay balanced in
    size, which is much faster than a running product once the result
    reaches thousands of bits. A long positive range that is wide
    against its start is the factorial ratio (hi-1)!/(lo-1)!, and is
    built from prime exponents instead (``_factorial_ratio``). On both
    paths, products of long factors of like length are Toom-3 products
    (``_mul``) over the builtin one. A long range that contains 0 is 0
    without a multiplication.
    """
    n = hi - lo
    if n <= 64:
        return prod(range(lo, hi))
    if lo <= 0 < hi:
        return 0
    if n >= _WIDE_LENGTH and 0 < lo and hi <= _WIDE_SPAN * n:
        return _factorial_ratio(lo, hi)
    return _product(range(lo, hi), 0, n)


def _factorial_ratio(lo: int, hi: int) -> int:
    """(hi-1)!/(lo-1)! for 1 <= lo < hi, without a division.

    With e_p the exponent of the odd prime p in the result and P_j the
    product of the odd primes whose e_p has bit j set, the odd part of
    the result is the product of P_j^(2^j), which r = r*r * P_j builds
    from the top bit down (P. B. Borwein, J. Algorithms 6, 1985). The
    power of 2, v(m!) = m - popcount(m), is one shift.
    """
    top, base = hi - 1, lo - 1
    # e_p <= v_p(top!) < top / (p - 1) <= top / 2
    groups: list[list[int]] = [[] for _ in range((top // 2).bit_length())]
    for e, run in _exponent_runs(top, base):
        for j in range(e.bit_length()):
            if e >> j & 1:
                groups[j] += run
    result = 1
    for group in reversed(groups):
        result = _mul(_mul(result, result), _product(group, 0, len(group)))
    return result << (top - top.bit_count() - base + base.bit_count())


def _exponent_runs(top: int, base: int) -> Iterator[tuple[int, Sequence[int]]]:
    """(e_p, the primes p that share it) for every odd prime p <= top,
    where Legendre's formula gives e_p = the sum over k >= 1 of
    floor(top/p^k) - floor(base/p^k), the exponent of p in top!/base!."""
    primes = _sieve(top + 1)
    end = bisect_right(primes, top)
    small = bisect_right(primes, isqrt(top), 1, end)
    for p in primes[1:small]:
        e, q = 0, p
        while q <= top:
            e += top // q - base // q
            q *= p
        yield e, (p,)
    # Above sqrt(top) only the k = 1 term is left, and it is constant on
    # the primes in (max(top // (t + 1), base // (b + 1)), p].
    while end > small:
        p = primes[end - 1]
        t, b = top // p, base // p
        start = bisect_right(primes, max(top // (t + 1), base // (b + 1)), small, end)
        yield t - b, primes[start:end]
        end = start


def _product(values: Sequence[int], lo: int, hi: int) -> int:
    """Product of values[lo:hi], split in half so that partial products
    stay balanced in size; each merge goes through ``_mul``, so the long
    merges near the root are Toom-3 products."""
    if hi - lo <= 64:
        return prod(values[lo:hi])
    mid = (lo + hi) // 2
    return _mul(_product(values, lo, mid), _product(values, mid, hi))


# Factors of at least _TOOM_BITS bits whose lengths are within a factor
# of 3/2 are multiplied by Toom-3; the cutoff comes from a measured table
# (README.md, "Performance").
_TOOM_BITS = 30000


def _mul(a: int, b: int) -> int:
    """a * b, by Toom-3 when both factors are long and of like length.

    Short or lopsided factors go to the builtin product (Karatsuba in
    CPython). A square (``a is b``) stays a square at every level, since
    squaring is about 30% cheaper than multiplying. The factors are cut
    into pieces here and dropped, so that a caller's temporaries do not
    outlive the split.
    """
    square = a is b
    n, m = a.bit_length(), b.bit_length()
    if n > m:
        n, m = m, n
    if n < _TOOM_BITS or 3 * n < 2 * m:
        return a * b
    negative = (a < 0) != (b < 0)
    k = (m + 2) // 3
    x = _toom3_points(abs(a), k)
    y = x if square else _toom3_points(abs(b), k)
    del a, b
    c = _toom3(x, y, k)
    return -c if negative else c


def _toom3_points(a: int, k: int) -> list[int]:
    """The values at 0, 1, -1, -2 and infinity of a0 + a1 x + a2 x^2,
    where a = a0 + a1 2^k + a2 2^(2k) >= 0 with k-bit pieces a0 and a1."""
    mask = (1 << k) - 1
    a0, a1, a2 = a & mask, (a >> k) & mask, a >> 2 * k
    t = a0 + a2
    m1 = t - a1
    return [a0, t + a1, m1, ((m1 + a2) << 1) - a0, a2]


def _toom3(x: list[int], y: list[int], k: int) -> int:
    """The product of two factors from their ``_toom3_points`` (one list
    for a square): five products a third as long, through ``_mul``, and
    Bodrato's interpolation (M. Bodrato, WAIFI 2007). Each value is
    dropped as soon as it has been used, to keep the peak low."""
    square = x is y
    products = []
    while x:
        u = x.pop()
        products.append(_mul(u, u if square else y.pop()))
        del u
    r4, rm2, rm1, r1, r0 = products
    del products
    r3 = (rm2 - r1) // 3
    del rm2
    r1 = (r1 - rm1) >> 1
    r2 = rm1 - r0
    del rm1
    r3 = ((r2 - r3) >> 1) + (r4 << 1)
    r2 += r1 - r4
    r1 -= r3
    c = r0 + (r1 << k)
    del r0, r1
    c += r2 << 2 * k
    del r2
    c += r3 << 3 * k
    del r3
    return c + (r4 << 4 * k)


def gap_sum_linear_closed(r: int, n: int) -> int:
    """Gap-sum of a_n = r*n in closed form: (2n+1) * C(r, 2)."""
    if r < 1:
        raise ValueError(f"slope must be >= 1, got {show(r)}")
    if n < 0:
        raise _index_error(n)
    return (2 * n + 1) * comb(r, 2)


def gap_sum_geometric_closed(k: int, n: int) -> int:
    """Gap-sum of a_n = k**n in closed form: ((k^2-1)k^(2n) - (k+1)k^n) / 2."""
    if k < 2:
        raise ValueError(f"base must be >= 2, got {show(k)}")
    if n < 0:
        raise _index_error(n)
    return ((k * k - 1) * k ** (2 * n) - (k + 1) * k**n) // 2
