"""Exact polynomial and rational-function algebra for ordinary generating
functions, plus one builder for those of Horadam sequences, their
shifts, their squares, and their gap-sums.

Polynomials store Fraction coefficients in ascending order with no
trailing zeros. Rational functions reduce on construction (no common
polynomial factor, denominator constant term 1), so ``==`` decides
whether two of them denote the same power series.

One Berlekamp-Massey core, ``_register``, does both that reduction and
``ratfunc_from_terms``, which recovers the shortest linear recurrence of
a run of terms; the Horadam builder goes through the latter.
That is exact, not a guess: C-finite sequences are closed under shifts,
sums and termwise products (Kauers & Paule, *The Concrete Tetrahedron*,
ch. 4), so each statistic of a Horadam pair has a recurrence of order at
most ``ORDER``, and the builder feeds more terms than determine it.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from ._decimal import show, to_decimal
from ._record import record
from .gaps import gap_sequence, gap_sum_signed_between
from .sequences import Horadam, N, _check_count

Coeff = int | Fraction


@record
class Poly:
    """Polynomial with exact rational coefficients, ascending powers."""

    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        cs = [Fraction(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __mul__(self, other: Poly) -> Poly:
        if not self or not other:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(tuple(out))

    def scale(self, factor: Coeff) -> Poly:
        f = Fraction(factor)
        return Poly(tuple(c * f for c in self.coeffs))


@record
class RatFunc:
    """Reduced quotient of two polynomials, expandable at the origin.

    Construction requires den(0) != 0 and scales den(0) to 1, and
    reduces num/den through its shorter side (``_lowest_terms``). With
    num = x^v num1 and num1(0) != 0, x does not divide den (den(0) != 0),
    so gcd(num, den) = gcd(num1, den). When deg num1 < deg den, the
    reduced den/num1 is turned over: its series has a register of length
    at most deg num1, not deg den, so a short numerator over a long
    denominator costs a few terms. Either way the result is the
    gcd-reduced form with den(0) = 1, so equal power series compare
    equal as values.
    """

    num: Poly
    den: Poly = Poly((1,))

    def __post_init__(self) -> None:
        num, den = self.num.coeffs, self.den.coeffs
        if not den:
            raise ValueError("rational function denominator is zero")
        if den[0] == 0:
            raise ValueError("denominator constant term is 0; no power series at the origin")
        v = next((i for i, c in enumerate(num) if c), 0)
        if 0 < len(num) - v < len(den):
            top, bottom = _lowest_terms(den, num[v:])
            num, den = [0] * v + [c / top[0] for c in bottom], [c / top[0] for c in top]
        else:
            num, den = _lowest_terms(num, den)
        for name, coeffs in (("num", num), ("den", den)):
            if (poly := Poly(tuple(coeffs))).coeffs != getattr(self, name).coeffs:
                object.__setattr__(self, name, poly)

    def expand(self, count: int) -> list[Fraction]:
        """First ``count`` power-series coefficients at the origin.

        With den = 1 + d_1 x + ... + d_k x^k the coefficients satisfy
        c_i = num_i - sum(d_j * c_(i-j)). That recurrence runs over the
        integers: with q the lcm of the denominators of den's
        coefficients, L that of num's, and e_j = q * d_j, the scaled
        coefficients u_i = q^i * L * c_i are integers satisfying
        u_i = q^i * L * num_i - sum(e_j * q^(j-1) * u_(i-j)), and
        c_i = u_i / (q^i * L). Horadam generating functions and integer
        denominators have q = 1, so the scaled values do not grow.
        """
        q, big_l, nums, weights = _scaled_recurrence(self.num.coeffs, self.den.coeffs, count)
        out: list[Fraction] = []
        scale = big_l  # q^i * L
        for u in _scaled_run(nums, weights, q, count):
            # Fraction(u) skips the gcd that Fraction(u, 1) pays.
            out.append(Fraction(u) if scale == 1 else Fraction(u, scale))
            scale *= q
        return out


def _scaled_recurrence(
    num: Sequence[Coeff], den: Sequence[Coeff], count: int
) -> tuple[int, int, list[int], list[int]]:
    """q, L, the integers L * num_i and the weights e_j * q^(j-1) of
    ``RatFunc.expand`` for num/den with den(0) = 1."""
    _check_count(count)
    q = lcm(*(c.denominator for c in den))
    big_l = lcm(*(c.denominator for c in num))
    nums = [c.numerator * (big_l // c.denominator) for c in num]
    weights = [
        c.numerator * (q // c.denominator) * q ** (j - 1) for j, c in enumerate(den[1:], 1)
    ]
    return q, big_l, nums, weights


def _lowest_terms(
    num: Sequence[Fraction], den: Sequence[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    """num/den in lowest terms with den(0) = 1, for den(0) != 0.

    Let P/Q be num/den so reduced and K = len(num). The power-series
    coefficients from index K on have the generating function R/Q with
    deg R < deg Q, also in lowest terms, so their shortest linear
    register (``_register``) has connection polynomial Q, and 2 deg den
    of them determine it (Massey's theorem). den becomes Q and num
    becomes (Q * series) mod x^K, which is P. The register skips the
    first K coefficients, over which Berlekamp-Massey would pass through
    registers with huge coefficients that the result does not use, and
    runs on the integers ``RatFunc.expand`` scales the series to.
    """
    if (c := den[0]) != 1:
        num, den = [a / c for a in num], [a / c for a in den]
    head = len(num)
    count = head + 2 * (len(den) - 1)
    q, big_l, nums, weights = _scaled_recurrence(num, den, count)
    conn, reduced = _register(list(_scaled_run(nums, weights, q, count)), big_l, q, head)
    return reduced, conn


def _scaled_run(nums: Sequence[N], weights: Sequence[N], q: int, count: int) -> Iterator[N]:
    """u_0 .. u_(count-1) of u_i = q^i * nums_i - sum(weights_j * u_(i-1-j)).

    Runs on ints, or on exact Decimals under the exact context. There the
    sum starts from the int 0, so it is never a negative zero, and
    neither is any u_i.
    """
    window: deque[N] = deque(maxlen=len(weights))  # u_(i-1), u_(i-2), ...
    power = 1  # q^i
    for i in range(count):
        u = (power * nums[i] if i < len(nums) else 0) - sum(map(mul, weights, window))
        yield u
        window.appendleft(u)
        power *= q


def decimal_expansion(f: RatFunc, count: int) -> Iterable:
    """The values of ``f.expand(count)``, ready to print.

    At scale 1 (q = L = 1 in ``expand``: every Horadam generating
    function, and integer num/den with den(0) = 1) the coefficients are
    the integers u_i, stepped on exact Decimals, whose ``str`` is linear
    where an int's is quadratic: a run to read under ``exact()``. At any
    other scale this is ``f.expand(count)``, with its Fractions.
    """
    q, big_l, nums, weights = _scaled_recurrence(f.num.coeffs, f.den.coeffs, count)
    if q != 1 or big_l != 1:
        return f.expand(count)
    return _scaled_run(list(map(to_decimal, nums)), list(map(to_decimal, weights)), 1, count)


def ratfunc(num: Sequence[Coeff], den: Sequence[Coeff] = (1,)) -> RatFunc:
    """RatFunc from ascending coefficient sequences."""
    return RatFunc(Poly(tuple(num)), Poly(tuple(den)))


def ratfunc_from_terms(seq: Sequence[Coeff]) -> RatFunc:
    """Generating function of the shortest linear recurrence seq satisfies.

    ``_register`` finds the shortest register generating seq. Massey's
    theorem makes the first 2L terms determine it, so 2L >= len(seq)
    (what terms with no recurrence give) raises ArithmeticError, as does
    an expansion that does not reproduce seq.
    """
    values = [Fraction(v) for v in seq]
    scale = lcm(*(v.denominator for v in values))
    conn, num = _register([v.numerator * (scale // v.denominator) for v in values], scale)
    if 2 * len(num) >= len(values):  # len(num) = L
        raise ArithmeticError(f"{len(values)} terms determine no recurrence (L = {len(num)})")
    f = RatFunc(Poly(tuple(num)), Poly(tuple(conn)))
    if f.expand(len(values)) != values:
        raise ArithmeticError("the recovered recurrence does not reproduce the terms")
    return f


def _register(
    ints: list[int], scale: int, q: int = 1, head: int = 0
) -> tuple[list[Fraction], list[Fraction]]:
    """The shortest linear register generating c[head:], as den and num,
    where ints[i] = q^i * scale * c_i (as ``expand`` scales them).

    Berlekamp-Massey (J. Massey, IEEE Trans. IT 1969) finds its length L
    and its connection polynomial C, C(0) = 1. L can exceed deg C when the
    first terms do not follow the recurrence (3, 5, 10, 20, ... has L = 2,
    C = 1 - 2x). Returns C and num = (C * c) mod x^max(L, head), as
    max(L, head) coefficients. The loop runs on the ints, fraction-free:
    their register is C(q x) times a constant, and the update
    C <- last_disc * C - disc * x^step * before keeps every register a
    scalar multiple of Massey's, divided by its content after each step.
    """
    tail = ints[head:]
    conn, before = [1], [1]  # C, and C before the last length change, `step` terms ago
    length, step, last_disc = 0, 1, 1  # last_disc: the discrepancy then
    for n in range(len(tail)):
        disc = sum(map(mul, conn, tail[n::-1]))
        if disc == 0:
            step += 1
            continue
        updated = [last_disc * c for c in conn]
        updated += [0] * (step + len(before) - len(updated))
        for i, c in enumerate(before, step):
            updated[i] -= disc * c
        content = gcd(*updated)
        updated = [c // content for c in updated]
        if 2 * length <= n:
            length, before, last_disc, step = n + 1 - length, conn, disc, 1
        else:
            step += 1
        conn = updated
    lead, width = conn[0], len(conn)
    den = [Fraction(c, lead * q**i) for i, c in enumerate(conn)]
    num = [Fraction(sum(map(mul, conn, reversed(ints[max(k + 1 - width, 0):k + 1]))),
                    lead * scale * q**k) for k in range(max(length, head))]
    return den, num


# (a^2, ab, b^2, a, b) of a Horadam pair (a, b) = (a_n, a_(n+1)) evolves by
# one fixed 5x5 linear map, so every statistic below, a linear combination
# of the five, has a recurrence of order at most 5; Massey's theorem makes
# 10 terms determine it, and the 2 more check it.
ORDER = 5


# kind -> its statistic of a Horadam pair (a_n, a_(n+1)), in gf's flag order.
GF_KINDS: dict[str, Callable[[int, int], int]] = {
    "plain": lambda a, b: a,
    "shift": lambda a, b: b,
    "square": lambda a, b: a * a,
    "square-shift": lambda a, b: b * b,
    "gapsum": gap_sum_signed_between,
}


def horadam_gf(spec: Horadam, kind: str = "plain") -> RatFunc:
    """Generating function of the statistic GF_KINDS[kind] of a Horadam sequence."""
    if kind not in GF_KINDS:
        raise ValueError(f"unknown gf kind {kind!r}; expected one of {', '.join(GF_KINDS)}")
    return ratfunc_from_terms(gap_sequence(GF_KINDS[kind], spec, 2 * ORDER + 2))


def integer_coefficients(f: RatFunc) -> tuple[list[int], list[int]]:
    """Numerator and denominator as integer lists after clearing
    denominators by one common factor (the same rational function)."""
    mult = lcm(*(c.denominator for c in (*f.num.coeffs, *f.den.coeffs, Fraction(0))))
    num = [int(c * mult) for c in f.num.coeffs]
    den = [int(c * mult) for c in f.den.coeffs]
    return num, den


def ratfunc_to_text(f: RatFunc) -> str:
    """Render as ``(num) / (den)`` with integer coefficients, ascending powers."""
    num, den = integer_coefficients(f)
    return f"({_poly_to_text(num)}) / ({_poly_to_text(den)})"


def _poly_to_text(coeffs: Sequence[int]) -> str:
    parts: list[str] = []
    for power, c in enumerate(coeffs):
        if c == 0:
            continue
        x = "" if power == 0 else "x" if power == 1 else f"x^{power}"
        body = x if x and abs(c) == 1 else show(abs(c)) + x
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"{'-' if c < 0 else '+'} {body}")
    return " ".join(parts) if parts else "0"
