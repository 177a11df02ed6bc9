"""Exact polynomial and rational-function algebra for ordinary generating
functions, plus the builders for Horadam sequences, their shifts, their
squares, and their gap-sums.

Polynomials store Fraction coefficients in ascending order with no
trailing zeros. Rational functions normalize on construction (common
polynomial factors cancelled, denominator constant term scaled to 1), so
``==`` decides whether two of them denote the same power series.

Every Horadam builder goes through ``ratfunc_from_terms``, which recovers
the shortest linear recurrence of a run of terms by Berlekamp-Massey.
That is exact, not a guess: C-finite sequences are closed under shifts,
sums and termwise products (Kauers & Paule, *The Concrete Tetrahedron*,
ch. 4), so each statistic of a Horadam pair has a recurrence of order at
most ``ORDER``, and the builders feed more terms than determine it.
"""

from __future__ import annotations

import re
from collections import deque
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Callable, Iterator, Sequence, TypeVar, Union

from ._decimal import exact, int_to_str, str_to_int, to_decimal
from ._record import record
from .gaps import gap_sequence, gap_sum_signed_between
from .sequences import Horadam

Coeff = Union[int, Fraction]
N = TypeVar("N")  # int, or an exact Decimal integer


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


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of a by b over the rationals."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b.coeffs)
    lead = b.coeffs[-1]
    quotient = [Fraction(0)] * max(len(a.coeffs) - db + 1, 0)
    rem = list(a.coeffs)
    while len(rem) >= db:
        f = rem[-1] / lead
        if f != 0:
            pos = len(rem) - db
            quotient[pos] = f
            for i in range(db):
                rem[pos + i] -= f * b.coeffs[i]
        rem.pop()
    return Poly(tuple(quotient)), Poly(tuple(rem))


def poly_exact_div(a: Poly, b: Poly) -> Poly:
    q, rem = poly_divmod(a, b)
    if rem:
        raise ArithmeticError(f"{b} does not divide {a}")
    return q


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm over the rationals."""
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if not a:
        return a
    return a.scale(1 / a.coeffs[-1])


@record
class RatFunc:
    """Normalized quotient of two polynomials, expandable at the origin.

    Construction requires den(0) != 0 and then cancels the polynomial gcd
    and rescales so the denominator's constant term is exactly 1. Equal
    power series therefore compare equal as values.
    """

    num: Poly
    den: Poly = Poly((1,))

    def __post_init__(self) -> None:
        num, den = self.num, self.den
        if not den:
            raise ValueError("rational function denominator is zero")
        if den.coefficient(0) == 0:
            raise ValueError("denominator constant term is 0; no power series at the origin")
        if not num:
            den = Poly((1,))
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = poly_exact_div(num, g)
                den = poly_exact_div(den, g)
            c = den.coefficient(0)
            if c != 1:
                num = num.scale(1 / c)
                den = den.scale(1 / c)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

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
        q, big_l, nums, weights = self._scaled_recurrence(count)
        out: list[Fraction] = []
        scale = big_l  # q^i * L
        for u in _scaled_run(nums, weights, q, count):
            # Fraction(u) skips the gcd that Fraction(u, 1) pays.
            out.append(Fraction(u) if scale == 1 else Fraction(u, scale))
            scale *= q
        return out

    def _scaled_recurrence(self, count: int) -> tuple[int, int, list[int], list[int]]:
        """q, L, the integers L * num_i and the weights e_j * q^(j-1) of ``expand``."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        num, den = self.num.coeffs, self.den.coeffs
        q = lcm(*(c.denominator for c in den))
        big_l = lcm(*(c.denominator for c in num))
        nums = [c.numerator * (big_l // c.denominator) for c in num]
        weights = [
            c.numerator * (q // c.denominator) * q ** (j - 1) for j, c in enumerate(den[1:], 1)
        ]
        return q, big_l, nums, weights


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


def decimal_expansion(f: RatFunc, count: int) -> list:
    """The values of ``f.expand(count)``, ready to print.

    At scale 1 (q = L = 1 in ``expand``: every Horadam generating
    function, and integer num/den with den(0) = 1) the coefficients are
    the integers u_i, stepped on exact Decimals, whose ``str`` is linear
    where an int's is quadratic. At any other scale this is
    ``f.expand(count)``, with its Fractions.
    """
    q, big_l, nums, weights = f._scaled_recurrence(count)
    if q != 1 or big_l != 1:
        return f.expand(count)
    with exact():
        return list(_scaled_run(
            [to_decimal(c) for c in nums], [to_decimal(w) for w in weights], 1, count
        ))


def ratfunc(num: Sequence[Coeff], den: Sequence[Coeff] = (1,)) -> RatFunc:
    """RatFunc from ascending coefficient sequences."""
    return RatFunc(Poly(tuple(num)), Poly(tuple(den)))


def ratfunc_from_terms(seq: Sequence[Coeff]) -> RatFunc:
    """Generating function of the shortest linear recurrence seq satisfies.

    Berlekamp-Massey over the rationals (J. Massey, IEEE Trans. IT 1969)
    finds the shortest register generating seq: its length L and its
    connection polynomial C. L can exceed deg C when the first terms do
    not follow the recurrence (3, 5, 10, 20, ... has L = 2, C = 1 - 2x).
    The result is num / C with num = (C * series) mod x^L. Massey's
    theorem makes the first 2L terms determine the register, so
    2L >= len(seq) (what terms with no recurrence give) raises
    ArithmeticError, as does an expansion that does not reproduce seq.
    """
    values = [Fraction(v) for v in seq]
    conn = [Fraction(1)]  # C
    before = [Fraction(1)]  # C before the last length change, `step` terms ago
    length, step, last_disc = 0, 1, Fraction(1)  # last_disc: the discrepancy then
    for n, value in enumerate(values):
        disc = value + sum(c * values[n - i] for i, c in enumerate(conn[1:], 1))
        if disc == 0:
            step += 1
            continue
        factor = disc / last_disc
        updated = conn + [Fraction(0)] * max(step + len(before) - len(conn), 0)
        for i, c in enumerate(before):
            updated[i + step] -= factor * c
        if 2 * length <= n:
            length, before, last_disc, step = n + 1 - length, conn, disc, 1
        else:
            step += 1
        conn = updated
    if 2 * length >= len(values):
        raise ArithmeticError(f"{len(values)} terms determine no recurrence (L = {length})")
    num = [sum(c * values[k - i] for i, c in enumerate(conn[: k + 1])) for k in range(length)]
    f = RatFunc(Poly(tuple(num)), Poly(tuple(conn)))
    if f.expand(len(values)) != values:
        raise ArithmeticError("the recovered recurrence does not reproduce the terms")
    return f


# (a^2, ab, b^2, a, b) of a Horadam pair (a, b) = (a_n, a_(n+1)) evolves by
# one fixed 5x5 linear map, so every statistic below, a linear combination
# of the five, has a recurrence of order at most 5; Massey's theorem makes
# 10 terms determine it, and the 2 more check it.
ORDER = 5


def _pair_gf(stat: Callable[[int, int], int], spec: Horadam) -> RatFunc:
    return ratfunc_from_terms(gap_sequence(stat, spec, 2 * ORDER + 2))


def horadam_gf(spec: Horadam) -> RatFunc:
    """Generating function of the Horadam sequence a_n that spec describes."""
    return _pair_gf(lambda a, b: a, spec)


def horadam_shift_gf(spec: Horadam) -> RatFunc:
    """Generating function of the once-shifted sequence a_(n+1)."""
    return _pair_gf(lambda a, b: b, spec)


def horadam_square_gf(spec: Horadam) -> RatFunc:
    """Generating function of the squared terms a_n**2."""
    return _pair_gf(lambda a, b: a * a, spec)


def horadam_shift_square_gf(spec: Horadam) -> RatFunc:
    """Generating function of the shifted squares a_(n+1)**2."""
    return _pair_gf(lambda a, b: b * b, spec)


def horadam_gap_sum_gf(spec: Horadam) -> RatFunc:
    """Generating function of the signed gap-sums of a Horadam sequence."""
    return _pair_gf(gap_sum_signed_between, spec)


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


def ratfunc_from_text(text: str) -> RatFunc:
    """Parse the ``(num) / (den)`` rendering back into a RatFunc."""
    m = re.fullmatch(r"\s*\(([^()]*)\)\s*/\s*\(([^()]*)\)\s*", text)
    if not m:
        raise ValueError(f"expected '(num) / (den)', got {text!r}")
    return RatFunc(_poly_from_text(m.group(1)), _poly_from_text(m.group(2)))


def _poly_to_text(coeffs: Sequence[int]) -> str:
    parts: list[str] = []
    for power, c in enumerate(coeffs):
        if c == 0:
            continue
        x = "" if power == 0 else "x" if power == 1 else f"x^{power}"
        body = x if x and abs(c) == 1 else int_to_str(abs(c)) + x
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"{'-' if c < 0 else '+'} {body}")
    return " ".join(parts) if parts else "0"


_TERM_RE = re.compile(r"(-?)(\d+)?(?:(x)(?:\^(\d+))?)?")


def _poly_from_text(text: str) -> Poly:
    compact = text.replace(" ", "")
    if compact in ("", "0"):
        return Poly()
    coeffs: dict[int, int] = {}
    for part in compact.replace("-", "+-").split("+"):
        if not part:
            continue
        m = _TERM_RE.fullmatch(part)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise ValueError(f"cannot parse polynomial term {part!r}")
        sign = -1 if m.group(1) == "-" else 1
        magnitude = str_to_int(m.group(2)) if m.group(2) is not None else 1
        if m.group(3) is None:
            power = 0
        else:
            power = int(m.group(4)) if m.group(4) is not None else 1
        coeffs[power] = coeffs.get(power, 0) + sign * magnitude
    out = [Fraction(0)] * (max(coeffs) + 1)
    for power, c in coeffs.items():
        out[power] = Fraction(c)
    return Poly(tuple(out))
