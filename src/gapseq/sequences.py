"""Integer sequence families with exact arbitrary-precision terms.

A sequence spec is a small frozen record (``_record.record``)
describing one family (linear, geometric, polynomial, binomial, Horadam
recurrence, primes, the paper-folding walk, or an explicit list).
``terms`` evaluates a run of a spec without ever leaving exact integer
arithmetic, and ``term`` is a run of one.
``decimal_terms`` gives the same run to print under ``exact()``: one
dispatch serves all three, and lifts the long-growing Horadam and geometric
seeds to exact Decimals, whose ``str`` is linear where an int's is quadratic.
"""

from __future__ import annotations

from _thread import allocate_lock
from collections.abc import Callable, Iterable, Iterator
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate, compress, islice, repeat
from math import comb, isqrt, log
from operator import index

from ._decimal import show, to_decimal
from ._record import record

N = int | Decimal  # an int, or an exact Decimal integer


class SpecError(ValueError):
    """A sequence spec violates its constraints, or its text does not parse."""


def _index_fields(spec: object) -> None:
    """Store every field of spec as an exact int (``operator.index``), or
    raise a SpecError naming the first field that is not an integer."""
    for name in spec.__match_args__:
        value = getattr(spec, name)
        try:
            object.__setattr__(spec, name, index(value))
        except TypeError:
            kind = type(spec).__name__.lower()
            raise SpecError(f"{kind} field {name} is not an integer: {value!r}") from None


@record
class Linear:
    """a_n = k*n + r with slope k >= 0."""

    k: int
    r: int

    def __post_init__(self) -> None:
        _index_fields(self)
        if self.k < 0:
            raise SpecError(f"linear slope must be >= 0, got {show(self.k)}")


@record
class Geometric:
    """a_n = k**n + offset with base k >= 2."""

    k: int
    offset: int = 0

    def __post_init__(self) -> None:
        _index_fields(self)
        if self.k < 2:
            raise SpecError(f"geometric base must be >= 2, got {show(self.k)}")


@record
class Polynomial:
    """a_n = sum(coeffs[i] * n**i), validated integer-valued on n >= 0.

    Coefficients may be rationals, so triangular numbers are
    ``Polynomial((0, Fraction(1, 2), Fraction(1, 2)))``. Construction
    rejects polynomials that take a non-integer value anywhere on the
    naturals.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(Fraction(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        # Newton basis: p(n) = sum_j d_j * C(n, j) with d_j the j-th forward
        # difference at 0, j <= degree. p is integer-valued on the naturals iff
        # every d_j is an integer, that is iff p(0), ..., p(degree) are.
        for n in range(_degree(coeffs) + 1):
            v = _poly_at(coeffs, n)
            if v.denominator != 1:
                raise SpecError(f"polynomial is not integer-valued: p({n}) = {show(v)}")


@record
class Binomial:
    """a_n = C(n + shift, lower)."""

    shift: int
    lower: int

    def __post_init__(self) -> None:
        _index_fields(self)
        if self.shift < 0:
            raise SpecError(f"binomial shift must be >= 0, got {show(self.shift)}")
        if self.lower < 1:
            raise SpecError(f"binomial lower index must be >= 1, got {show(self.lower)}")


@record
class Horadam:
    """a_n = h(n + shift) where h(0) = alpha, h(1) = beta and
    h(i) = r*h(i-1) + s*h(i-2).

    Fibonacci, Jacobsthal and Pell are the instances (0,1,1,1),
    (0,1,1,2) and (0,1,2,1). A positive shift re-roots the sequence:
    Jacobsthal J(n+2) is (0,1,1,2) with shift 2, equivalently
    (1,3,1,2) with shift 0.
    """

    alpha: int
    beta: int
    r: int
    s: int
    shift: int = 0

    def __post_init__(self) -> None:
        _index_fields(self)
        if self.shift < 0:
            raise SpecError(f"horadam shift must be >= 0, got {show(self.shift)}")


@record
class Primes:
    """a_n = the (n+1)-th prime, so a_0 = 2."""


@record
class Fold:
    """a_n = A088748(n), the walk driven by the regular paper-folding
    bits (see the folding module)."""


@record
class Explicit:
    """A finite, explicitly listed sequence (at least two terms)."""

    terms: tuple[int, ...]

    def __post_init__(self) -> None:
        values = []
        for t in self.terms:
            try:
                values.append(index(t))
            except TypeError:
                raise SpecError(f"explicit term is not an integer: {t!r}") from None
        if len(values) < 2:
            raise SpecError("explicit sequence needs at least 2 terms")
        object.__setattr__(self, "terms", tuple(values))


SeqSpec = Linear | Geometric | Polynomial | Binomial | Horadam | Primes | Fold | Explicit

FIBONACCI = Horadam(0, 1, 1, 1)
JACOBSTHAL = Horadam(0, 1, 1, 2)
PELL = Horadam(0, 1, 2, 1)


def term(spec: SeqSpec, n: int) -> int:
    """Exact n-th term (n >= 0) of the sequence described by spec: a run of
    one, which never steps, so each family uses its per-index formula."""
    (value,) = _run(spec, n, 1, int)
    return value


def terms(spec: SeqSpec, n0: int, count: int) -> list[int]:
    """Terms a_n0 .. a_(n0+count-1) in one pass.

    Horadam jumps to n0 in O(log n0) multiplications and then steps the
    recurrence; polynomials step by integer forward differences; primes
    and the folding walk slice their bulk-built tables.
    """
    run = _run(spec, n0, count, int)
    return run if isinstance(run, list) else list(run)


def decimal_terms(spec: SeqSpec, n0: int, count: int) -> Iterable:
    """The run of ``terms(spec, n0, count)``, checked, to print under
    ``exact()``: the Horadam and geometric seeds (the O(log n0) Horadam jump,
    k**n0) are lifted to exact Decimals in subquadratic time, so those runs
    step on Decimals; every other family gives the short ints of ``terms``."""
    return _run(spec, n0, count, to_decimal)


def _run(spec: SeqSpec, n0: int, count: int, lift: Callable[[int], N]) -> Iterable:
    """a_n0 .. a_(n0+count-1), each made as it is read, once the arguments
    are checked: the one family dispatch. lift maps the Horadam and geometric
    seeds to the number type their run steps on; the CLI writes a Decimal
    run as it reads it under ``exact()``. Only the fold walk comes as a
    list, a fresh slice that ``terms`` and ``decimal_terms`` return as is."""
    if n0 < 0:
        raise _index_error(n0)
    if _check_count(count) == 0:
        return ()
    end = n0 + count
    match spec:
        case Linear(k=k, r=r):
            return range(k * n0 + r, k * end + r, k) if k else repeat(r, count)
        case Geometric(k=k, offset=offset):
            return _geometric_run(lift(k**n0), lift(k), lift(offset), count)
        case Polynomial(coeffs=coeffs):
            return _polynomial_run(coeffs, n0, count)
        case Binomial(shift=shift, lower=lower):
            return map(comb, range(n0 + shift, end + shift), repeat(lower))
        case Horadam(r=r, s=s):
            a, b = _horadam_pair(spec, n0 + spec.shift)
            return _horadam_run(lift(a), lift(b), lift(r), lift(s), count)
        case Primes():
            nth_prime(end - 1)
            return islice(_primes, n0, end)
        case Fold():
            from .folding import walk  # local import: folding depends on this module

            return walk(n0, count)
        case Explicit(terms=values):
            if end > len(values):
                raise _explicit_range_error(values, max(n0, len(values)))
            return islice(values, n0, end)
    raise TypeError(f"not a sequence spec: {spec!r}")


def _geometric_run(power: N, k: N, offset: N, count: int) -> Iterator[N]:
    """power + offset, then k times as much power each step (k >= 2, so
    power > 0 and no Decimal sum is a negative zero)."""
    for _ in range(count):
        yield power + offset
        power *= k


def _horadam_run(a: N, b: N, r: N, s: N, count: int) -> Iterator[N]:
    """a, b, then r*b + s*a each step, count values in all. The unary plus
    changes no int; on a Decimal it turns the negative zero of, say,
    (-1)*0 + (-1)*0 into 0, which prints as "0"."""
    yield a
    for _ in range(count - 1):
        a, b = b, +(r * b + s * a)
        yield a


def _index_error(n: int) -> IndexError:
    return IndexError(f"sequence index must be >= 0, got {show(n)}")


def _check_count(count: int) -> int:
    """count, or a ValueError if it is negative."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {show(count)}")
    return count


def _explicit_range_error(values: tuple[int, ...], n: int) -> IndexError:
    return IndexError(f"explicit sequence has {len(values)} terms, index {n} is out of range")


def _horadam_pair(spec: Horadam, m: int) -> tuple[int, int]:
    """(h(m), h(m+1)), ignoring spec.shift, in O(log m) multiplications.

    The powers of [[r, s], [1, 0]] map the column (h(j+1), h(j)) to
    (h(j+k+1), h(j+k)); square-and-multiply applies M**m to (beta, alpha).
    """
    hi, lo = spec.beta, spec.alpha
    p, q, u, v = spec.r, spec.s, 1, 0  # M**(2**i), row-major
    while m:
        if m & 1:
            hi, lo = p * hi + q * lo, u * hi + v * lo
        m >>= 1
        if m:
            qu, trace = q * u, p + v
            p, q, u, v = p * p + qu, trace * q, trace * u, qu + v * v
    return lo, hi


def _degree(coeffs: tuple[Fraction, ...]) -> int:
    """The index of the last non-zero coefficient; 0 for the zero polynomial."""
    degree = max(len(coeffs) - 1, 0)
    while degree and coeffs[degree] == 0:
        degree -= 1
    return degree


def _poly_at(coeffs: tuple[Fraction, ...], n: int) -> Fraction:
    """sum(coeffs[i] * n**i), by Horner's rule."""
    value = Fraction(0)
    for c in reversed(coeffs):
        value = value * n + c
    return value


def _polynomial_run(coeffs: tuple[Fraction, ...], n0: int, count: int) -> Iterable[int]:
    """Terms of a polynomial from deg + 1 exact start values, then integer
    forward differences: each level is the running sum of the level below.
    A run no longer than deg + 1 is just its start values."""
    degree = _degree(coeffs)
    # integral by Polynomial's construction-time validation
    row = [_poly_at(coeffs, n).numerator for n in range(n0, n0 + min(count, degree + 1))]
    if count <= degree + 1:
        return row
    for j in range(1, degree + 1):  # row[j] becomes the j-th difference at n0
        for i in range(degree, j - 1, -1):
            row[i] -= row[i - 1]
    level = repeat(row[degree], count - degree)
    for j in range(degree - 1, -1, -1):
        level = accumulate(level, initial=row[j])
    return level


_PRIME_LOCK = allocate_lock()
_primes: list[int] = [2, 3, 5, 7, 11, 13]


def nth_prime(n: int) -> int:
    """The (n+1)-th prime: nth_prime(0) == 2.

    A miss sieves once, up to Rosser's bound for max(n + 1,
    2 * len(_primes)) primes, so the table at least doubles and a run of
    growing indices sieves O(log n) times. Rosser and Schoenfeld (1962):
    the m-th prime is below m * (ln m + ln ln m) for m >= 6; the + 2
    covers float rounding.
    """
    if n < 0:
        raise IndexError(f"prime index must be >= 0, got {show(n)}")
    if n >= len(_primes):
        count = max(n + 1, 2 * len(_primes))
        _sieve(int(count * (log(count) + log(log(count)))) + 2)
    return _primes[n]


def _sieve(limit: int) -> list[int]:
    """The prime table, once it holds every prime below limit.

    A miss sieves the odd numbers below max(limit, 2 * the largest known
    prime), so the table at least doubles its bound, and replaces the
    cached list atomically: concurrent readers always see a complete
    prefix of the primes. flags[i] stands for the odd number 2i + 1.
    """
    global _primes
    with _PRIME_LOCK:
        if _primes[-1] >= limit - 1:
            return _primes
        limit = max(limit, 2 * _primes[-1])
        half = limit // 2
        flags = bytearray(b"\x01") * half
        flags[0] = 0  # 1 is not prime
        for i in range(1, (isqrt(limit - 1) + 1) // 2):
            if flags[i]:
                p = 2 * i + 1
                flags[p * p // 2 :: p] = bytes(len(range(p * p // 2, half, p)))
        _primes = [2, *compress(range(1, limit, 2), flags)]
        return _primes
