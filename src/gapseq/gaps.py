"""Gaps between consecutive sequence terms, their sums and their products.

The n-th gap is the run of consecutive integers strictly between a_n and
a_(n+1). Three sum variants exist: ``gap_sum`` clamps to 0 on empty gaps,
``gap_sum_signed`` evaluates the closed form without clamping (negative at
descents), and ``gap_sum_abs`` sums a_n + j over j = 1 .. |a_(n+1)-a_n-1|.
``gap_sequence`` lists any of them for n = 0 .. count-1 from ``_gaps``,
which the CLI writes as it comes; ``decimal_gap_sequence`` gives the sums
as exact Decimals to print, and ``_printed_product_between`` the products.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import accumulate, pairwise, starmap
from decimal import Decimal
from math import comb, isqrt, perm, prod
from operator import pos

from ._decimal import _CONTEXT, _DIRECT_BITS, _shown, to_decimal
from ._record import record
from .sequences import N, SeqSpec, _check_count, _index_error, _run, _sieve, terms


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
# (a_n, a_(n+1)), applied by the per-n functions below (to terms(spec, n, 2),
# one O(log n) jump for Horadam) and by ``gap_sequence``: the arithmetic exists once.


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


def _gaps(stat: Callable, spec: SeqSpec, count: int, lift: Callable = int) -> Iterator:
    """stat(a_n, a_(n+1)) for n = 0 .. count-1, pairing the terms of one run
    (``_run`` with lift) as it makes them; the arguments are checked at the call."""
    return starmap(stat, pairwise(_run(spec, 0, _check_count(count) + 1, lift)))


def gap_sequence(stat: Callable[[int, int], object], spec: SeqSpec, count: int) -> list:
    """stat(a_n, a_(n+1)) for n = 0 .. count-1: the list of ``_gaps``."""
    return list(_gaps(stat, spec, count))


def decimal_gap_sequence(stat: Callable[[int, int], N], spec: SeqSpec, count: int) -> Iterator:
    """The values of ``gap_sequence(stat, spec, count)``, to print under
    ``exact()``, for a stat of plain arithmetic (the gap sums). stat runs
    on the Decimal run of ``decimal_terms``, and the unary plus turns a
    negative zero, as in the signed sum 0 * -97 // 2, into 0."""
    return map(pos, _gaps(stat, spec, count, to_decimal))


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
# At most _LEAF integers are one ``math.perm``, a running product on
# Python 3.10, so the balanced split stops there.
_LEAF = 64


def product_range(lo: int, hi: int) -> int:
    """Product of the integers in [lo, hi); 1 when empty.

    A range of at most _LEAF integers is one ``math.perm`` (hi-1)!/(lo-1)!,
    with the sign of (-1)**n for a range below 0, and a range that
    contains 0 is 0 without a multiplication. Longer ranges are split in
    half so partial products stay balanced in size, which is much faster
    than a running product once the result reaches thousands of bits.
    A long positive range that is wide against its start is the
    factorial ratio (hi-1)!/(lo-1)!, and is built from prime exponents
    instead (``_factorial_ratio``). On both paths, products of long
    factors of like length are Toom-3 products (``_mul``) over the
    builtin one, and a product of at least _FORK_BITS bits is made on two
    cores where ``_may_fork`` allows it.
    """
    n = hi - lo
    if n <= 0:
        return 1
    if lo <= 0 < hi:
        return 0
    if n <= _LEAF:
        if lo > 0:
            return perm(hi - 1, n)
        p = perm(-lo, n)
        return -p if n & 1 else p
    fork = _may_fork(n * max(-lo, hi - 1).bit_length())
    if _is_wide(lo, hi):
        return _factorial_ratio(lo, hi, fork)
    return _product(range(lo, hi), 0, n, fork)


def _is_wide(lo: int, hi: int) -> bool:
    """Whether [lo, hi) takes ``_factorial_ratio``: at least _WIDE_LENGTH
    integers, all positive, and hi at most _WIDE_SPAN times as many."""
    n = hi - lo
    return n >= _WIDE_LENGTH and 0 < lo and hi <= _WIDE_SPAN * n


def _factorial_ratio(lo: int, hi: int, fork: bool = False) -> int:
    """(hi-1)!/(lo-1)! for 1 <= lo < hi, without a division.

    The odd part is ``_borwein`` of the runs of ``_exponent_runs``; the
    power of 2, v(m!) = m - popcount(m), is one shift. With fork, the
    runs are cut where the bits they put into Borwein's groups reach
    half (a run joins as many groups as e has bits set), and ``_joined``
    makes the two parts and their product on two cores. Cut where e
    times their bits reach half, the lower part took a third of the
    upper part's time.
    """
    top, base = hi - 1, lo - 1
    runs = _exponent_runs(top, base)
    if fork:
        runs = list(runs)
        bits = list(accumulate(e.bit_count() * sum(map(int.bit_length, run)) for e, run in runs))
        cut = bisect_right(bits, bits[-1] // 2) if bits else 0
        odd = _joined(_borwein, (runs[:cut], top), (runs[cut:], top))
    else:
        odd = _borwein(runs, top)
    return odd << (top - top.bit_count() - base + base.bit_count())


def _borwein(runs: Iterable[tuple[int, Sequence[int]]], top: int) -> int:
    """The product of p^e over the runs (e, primes p) of ``_exponent_runs(top, ...)``.

    With P_j the product of the primes whose e has bit j set, that is the
    product of P_j^(2^j), which r = r*r * P_j builds from the top bit
    down (P. B. Borwein, J. Algorithms 6, 1985).
    """
    # e_p <= v_p(top!) < top / (p - 1) <= top / 2
    groups: list[list[int]] = [[] for _ in range((top // 2).bit_length())]
    for e, run in runs:
        for j in range(e.bit_length()):
            if e >> j & 1:
                groups[j] += run
    result = 1
    for group in reversed(groups):
        result = _mul(_mul(result, result), _product(group, 0, len(group)))
    return result


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


def _product(values: Sequence[int], lo: int, hi: int, fork: bool = False) -> int:
    """Product of values[lo:hi], split in half so that partial products
    stay balanced in size; each merge goes through ``_mul``, so the long
    merges near the root are Toom-3 products. A leaf over a range of
    positive integers is one ``math.perm``, so the split stays above
    _LEAF values. With fork, ``_joined`` makes the two halves and their
    product on two cores."""
    if hi - lo <= _LEAF:
        if isinstance(values, range) and values.start > 0:
            return perm(values[hi - 1], hi - lo)
        return prod(values[lo:hi])
    mid = (lo + hi) // 2
    if fork:
        return _joined(_product, (values, lo, mid), (values, mid, hi))
    return _mul(_product(values, lo, mid), _product(values, mid, hi))


def _printed_product_between(a: int, b: int) -> int | Decimal:
    """``gap_product_between(a, b)``, ready to print: a long narrow
    product of positive integers comes as an exact Decimal, whose ``str``
    is linear where an int's is quadratic; any other as the int of
    ``product_range``. Exact under any decimal context."""
    lo, hi = a + 1, b
    if hi - lo <= _LEAF or lo <= 0 or _is_wide(lo, hi):
        return product_range(lo, hi)
    return _decimal_product(range(lo, hi), 0, hi - lo)


def _decimal_product(values: range, lo: int, hi: int) -> Decimal:
    """Product of values[lo:hi] for a range of positive integers, as a
    Decimal: split in half down to leaves of about _DIRECT_BITS bits (or
    one value), whose int products ``to_decimal`` lifts, and multiplied
    as Decimals above them in the exact context, whatever the caller's."""
    if hi - lo == 1 or (hi - lo) * values[hi - 1].bit_length() <= _DIRECT_BITS:
        return to_decimal(_product(values, lo, hi))
    mid = (lo + hi) // 2
    low, high = _decimal_product(values, lo, mid), _decimal_product(values, mid, hi)
    return _CONTEXT.multiply(low, high)


# Factors of at least _TOOM_BITS bits whose lengths are within a factor
# of 3/2 are multiplied by Toom-3; the cutoff comes from a measured table
# (README.md, "Performance").
_TOOM_BITS = 30000


def _mul(a: int, b: int, again: Callable[[], tuple[int, int]] | None = None) -> int:
    """a * b, by Toom-3 when both factors are long and of like length.

    Short or lopsided factors go to the builtin product (Karatsuba in
    CPython). A square (``a is b``) stays a square at every level, since
    squaring is about 30% cheaper than multiplying. The factors are cut
    into pieces here and dropped, so that a caller's temporaries do not
    outlive the split.

    Given ``again``, a function that makes a and b anew, this call may
    fork: a child makes two of Toom-3's five products, or for a lopsided
    pair the upper half of the long factor times the short one, while
    this process makes the rest. This process keeps none of the child's
    inputs, so should the child fail, it makes ``again()``'s product
    itself. The products below never fork.
    """
    square = a is b
    n, m = a.bit_length(), b.bit_length()
    if n > m:
        n, m = m, n
    if again is not None and 3 * n < 2 * m:
        if a.bit_length() < m:
            a, b = b, a
        s = m // 2  # a = (a >> s << s) + (a & mask), for either sign of a
        with _Child(_mul, a >> s, b) as child:
            a &= (1 << s) - 1
            low = _mul(a, b)
            del a, b
            high = child.result()
        return _mul(*again()) if high is None else (high[0] << s) + low
    if n < _TOOM_BITS or 3 * n < 2 * m:
        return a * b
    negative = (a < 0) != (b < 0)
    k = (m + 2) // 3
    x = _toom3_points(abs(a), k)
    y = x if square else _toom3_points(abs(b), k)
    del a, b
    c = _toom3(x, y, k, again is not None)
    if c is None:
        return _mul(*again())
    return -c if negative else c


def _toom3_points(a: int, k: int) -> list[int]:
    """The values at 0, 1, -1, -2 and infinity of a0 + a1 x + a2 x^2,
    where a = a0 + a1 2^k + a2 2^(2k) >= 0 with k-bit pieces a0 and a1."""
    mask = (1 << k) - 1
    a0, a1, a2 = a & mask, (a >> k) & mask, a >> 2 * k
    t = a0 + a2
    m1 = t - a1
    return [a0, t + a1, m1, ((m1 + a2) << 1) - a0, a2]


def _toom3(x: list[int], y: list[int], k: int, fork: bool = False) -> int | None:
    """The product of two factors from their ``_toom3_points`` (one list
    for a square): five products a third as long, through ``_mul``, and
    Bodrato's interpolation (M. Bodrato, WAIFI 2007). Each value is
    dropped as soon as it has been used, to keep the peak low. With
    fork, a forked child makes the products at 1 and -1, and None means
    that it failed."""
    if fork:
        tx = x[1:3]
        with _Child(_point_products, tx, tx if x is y else y[1:3]) as child:
            del tx, x[1:3]  # the child's points: it has its own copy
            if y is not x:
                del y[1:3]
            r4, rm2, r0 = _point_products(x, y)
            theirs = child.result()
        if theirs is None:
            return None
        rm1, r1 = theirs
        del theirs
    else:
        r4, rm2, rm1, r1, r0 = _point_products(x, y)
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


def _point_products(x: list[int], y: list[int]) -> list[int]:
    """x[i] * y[i] through ``_mul``, last point first (squares when x is
    y), each point dropped as soon as its product is made."""
    square = x is y
    products = []
    while x:
        u = x.pop()
        products.append(_mul(u, u if square else y.pop()))
        del u
    return products


# A product of at least _FORK_BITS bits is made on two cores where
# _may_fork allows it. Its two forks, the children's replies and their
# reaping cost about 2 ms; the cutoff comes from a measured crossover
# table (README.md, "Performance").
_FORK_BITS = 5 << 16


def _may_fork(bits: int) -> bool:
    """Whether a product of about this many bits may fork a child: it has
    at least _FORK_BITS bits, this process may run on two CPUs or more,
    and it has one thread, since a fork copies only the thread that calls
    it. Where a check cannot be made, as off Linux, the answer is no."""
    if bits < _FORK_BITS:
        return False
    try:
        return len(os.sched_getaffinity(0)) >= 2 and len(os.listdir("/proc/self/task")) == 1
    except (AttributeError, OSError):
        return False


def _joined(make: Callable[..., int], low: tuple, high: tuple) -> int:
    """make(*low) * make(*high) on two cores: a forked child makes
    make(*high) while this process makes make(*low), and the forking
    ``_mul`` joins them. Should the child fail, this process makes its
    part itself, and then no longer forks."""
    with _Child(make, *high) as child:
        parts = [make(*low)]
        parts += child.result() or [make(*high)]
        again = (lambda: (make(*low), make(*high))) if child.pid is not None else None
    return _mul(parts.pop(), parts.pop(), again)  # popped, so that no name keeps a part


class _Child:
    """job(*args), one int or a list of ints, made in a forked child while
    this process goes on inside the ``with`` block.

    ``result()`` is the list the child sent: each int as its length and
    its ``to_bytes``, read into one buffer of that length, then a length
    of 0. It is None if the fork failed or the child ended before it sent
    that 0. This process keeps no reference to job or args. Leaving the
    block reaps the child, and kills it first if it has not delivered, as
    when an exception is on its way out. The child leaves by
    ``os._exit``, which runs no atexit handler and flushes no buffer it
    inherited, so nothing written before the fork is written twice.
    """

    def __init__(self, job: Callable, *args) -> None:
        self.pid = self.pipe = None
        self.sent = False
        try:
            r, w = os.pipe()
        except OSError:
            return
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            return
        if pid == 0:
            os.close(r)
            _send(w, job, args)
        os.close(w)
        self.pid, self.pipe = pid, open(r, "rb")

    def __enter__(self) -> _Child:
        return self

    def __exit__(self, *exc: object) -> None:
        if self.pipe is not None:
            self.pipe.close()
        if self.pid is not None:
            if not self.sent:
                from signal import SIGKILL

                os.kill(self.pid, SIGKILL)
            os.waitpid(self.pid, 0)

    def result(self) -> list[int] | None:
        """The ints the child sent, or None if there are none to read.
        ``read`` puts each into one bytes object of its length, which
        ``int.from_bytes`` takes without a copy."""
        if self.pipe is None:
            return None
        made = []
        with self.pipe as pipe:
            while len(head := pipe.read(8)) == 8:
                size = int.from_bytes(head, "little")
                if not size:
                    self.sent = True
                    return made
                body = pipe.read(size)
                if len(body) < size:
                    break
                made.append(int.from_bytes(body, "little", signed=True))
                del body
        return None


def _send(w: int, job: Callable, args: tuple) -> None:
    """In a forked child: write job(*args) to the pipe end w as
    ``_Child.result`` reads it, and exit, with status 0 only if all of it
    was written."""
    code = 1
    try:
        made = job(*args)
        with open(w, "wb") as out:
            for v in [made] if isinstance(made, int) else made:
                size = v.bit_length() // 8 + 1  # room for the sign bit
                out.write(size.to_bytes(8, "little"))
                out.write(v.to_bytes(size, "little", signed=True))
            out.write(bytes(8))
        code = 0
    finally:
        os._exit(code)


def gap_sum_linear_closed(r: int, n: int) -> int:
    """Gap-sum of a_n = r*n in closed form: (2n+1) * C(r, 2)."""
    if r < 1:
        raise ValueError(f"slope must be >= 1, got {_shown(r)}")
    if n < 0:
        raise _index_error(n)
    return (2 * n + 1) * comb(r, 2)


def gap_sum_geometric_closed(k: int, n: int) -> int:
    """Gap-sum of a_n = k**n in closed form: ((k^2-1)k^(2n) - (k+1)k^n) / 2."""
    if k < 2:
        raise ValueError(f"base must be >= 2, got {_shown(k)}")
    if n < 0:
        raise _index_error(n)
    return ((k * k - 1) * k ** (2 * n) - (k + 1) * k**n) // 2
