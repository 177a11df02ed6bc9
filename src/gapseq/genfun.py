"""Exact polynomial and rational-function algebra for ordinary generating
functions, plus the builders for Horadam sequences, their shifts, their
squares, and their gap-sums.

Polynomials store Fraction coefficients in ascending order with no
trailing zeros. Rational functions normalize on construction (common
polynomial factors cancelled, denominator constant term scaled to 1), so
``==`` decides whether two of them denote the same power series.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence, Union

from .sequences import Horadam

Coeff = Union[int, Fraction]


@dataclass(frozen=True)
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

    def __add__(self, other: Poly) -> Poly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(tuple(out))

    def __neg__(self) -> Poly:
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other: Poly) -> Poly:
        if not self or not other:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(tuple(out))

    def __pow__(self, exponent: int) -> Poly:
        if exponent < 0:
            raise ValueError(f"polynomial power must be >= 0, got {exponent}")
        out = Poly((1,))
        for _ in range(exponent):
            out = out * self
        return out

    def scale(self, factor: Coeff) -> Poly:
        f = Fraction(factor)
        return Poly(tuple(c * f for c in self.coeffs))

    def __call__(self, x: Coeff) -> Fraction:
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out


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


@dataclass(frozen=True)
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

    def __add__(self, other: RatFunc) -> RatFunc:
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: RatFunc) -> RatFunc:
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other: RatFunc) -> RatFunc:
        return RatFunc(self.num * other.num, self.den * other.den)

    def __neg__(self) -> RatFunc:
        return RatFunc(-self.num, self.den)

    def scale(self, factor: Coeff) -> RatFunc:
        return RatFunc(self.num.scale(factor), self.den)

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
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        num, den = self.num.coeffs, self.den.coeffs
        q = lcm(*(c.denominator for c in den))
        big_l = lcm(*(c.denominator for c in num))
        nums = [c.numerator * (big_l // c.denominator) for c in num]
        weights = [
            c.numerator * (q // c.denominator) * q ** (j - 1) for j, c in enumerate(den[1:], 1)
        ]
        window: deque[int] = deque(maxlen=len(weights))  # u_(i-1), u_(i-2), ...
        out: list[Fraction] = []
        power = 1  # q^i
        for i in range(count):
            u = (power * nums[i] if i < len(nums) else 0) - sum(map(mul, weights, window))
            scale = power * big_l  # Fraction(u) skips the gcd that Fraction(u, 1) pays
            out.append(Fraction(u) if scale == 1 else Fraction(u, scale))
            window.appendleft(u)
            power *= q
        return out


def ratfunc(num: Sequence[Coeff], den: Sequence[Coeff] = (1,)) -> RatFunc:
    """RatFunc from ascending coefficient sequences."""
    return RatFunc(Poly(tuple(num)), Poly(tuple(den)))


def horadam_gf(spec: Horadam) -> RatFunc:
    """Generating function of the Horadam sequence spec describes.

    For seeds (a, b) and recurrence h_i = r*h_(i-1) + s*h_(i-2) this is
    (a - (a*r - b)x) / (1 - r*x - s*x^2); a positive shift is folded
    into the seeds first.
    """
    a, b = spec.seeds_at_shift()
    r, s = spec.r, spec.s
    return ratfunc((a, b - a * r), (1, -r, -s))


def horadam_shift_gf(spec: Horadam) -> RatFunc:
    """Generating function of the once-shifted sequence a_(n+1)."""
    a, b = spec.seeds_at_shift()
    r, s = spec.r, spec.s
    return ratfunc((b, a * s), (1, -r, -s))


def _square_den(r: int, s: int) -> tuple[int, int, int, int]:
    t = r * r + s
    return (1, -t, -s * t, s**3)


def horadam_square_gf(spec: Horadam) -> RatFunc:
    """Generating function of the squared terms a_n**2."""
    a, b = spec.seeds_at_shift()
    r, s = spec.r, spec.s
    t = r * r + s
    num = (
        a * a,
        -(a * a * t - b * b),
        -s * (a * a * r * r - 2 * a * b * r + b * b),
    )
    return ratfunc(num, _square_den(r, s))


def horadam_shift_square_gf(spec: Horadam) -> RatFunc:
    """Generating function of the shifted squares a_(n+1)**2."""
    a, b = spec.seeds_at_shift()
    r, s = spec.r, spec.s
    num = (
        b * b,
        s * (a * a * s + 2 * a * b * r - b * b),
        -(a * a * s**3),
    )
    return ratfunc(num, _square_den(r, s))


def horadam_gap_sum_gf(spec: Horadam) -> RatFunc:
    """Generating function of the signed gap-sums of a Horadam sequence.

    Termwise this is (a_(n+1)^2 - a_n^2 - a_(n+1) - a_n) / 2, so the
    four series above combine as (shifted squares - squares - shifted
    sequence - sequence) scaled by one half.
    """
    combined = (
        horadam_shift_square_gf(spec)
        - horadam_square_gf(spec)
        - horadam_shift_gf(spec)
        - horadam_gf(spec)
    )
    return combined.scale(Fraction(1, 2))


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
        magnitude = abs(c)
        if power == 0:
            body = str(magnitude)
        elif power == 1:
            body = "x" if magnitude == 1 else f"{magnitude}x"
        else:
            body = f"x^{power}" if magnitude == 1 else f"{magnitude}x^{power}"
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
        magnitude = int(m.group(2)) if m.group(2) is not None else 1
        if m.group(3) is None:
            power = 0
        else:
            power = int(m.group(4)) if m.group(4) is not None else 1
        coeffs[power] = coeffs.get(power, 0) + sign * magnitude
    out = [Fraction(0)] * (max(coeffs) + 1)
    for power, c in coeffs.items():
        out[power] = Fraction(c)
    return Poly(tuple(out))
