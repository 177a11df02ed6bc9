"""Exact integer arithmetic on ``decimal.Decimal``, for values that are printed.

``str`` of a Decimal is linear in its length, while ``str`` of an int
is quadratic below 4300 digits on Python 3.10-3.13 (and everywhere on
3.10 and 3.11). Stepping a recurrence with small integer coefficients
costs about the same on either type, so the CLI runs the recurrences
whose values it prints (Horadam and geometric terms, their gap sums,
and generating-function expansions at scale 1) on Decimal.

Every operation runs under one exact context, entered only through
``exact()``, so a caller's own decimal context never changes. Any
rounding raises instead of losing digits. Only integer operations are
meant to run under it: +, -, *, an exact // and unary plus. A true
division that does not terminate would try to compute MAX_PREC digits.
"""

from __future__ import annotations

import decimal
from decimal import Decimal
from typing import ContextManager

_CONTEXT = decimal.Context(
    prec=decimal.MAX_PREC,
    rounding=decimal.ROUND_HALF_EVEN,  # makes 0 + -0 and +(-0) plain 0
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[
        decimal.Inexact,
        decimal.Rounded,
        decimal.InvalidOperation,
        decimal.DivisionByZero,
        decimal.Overflow,
    ],
)

# Ints up to this many bits go through Decimal(int), which is quadratic;
# longer ones are split in two by bits and recombined with a power of two.
_DIRECT_BITS = 2048

# w -> Decimal(2)**w. Every w is a power of two, so the cache holds one
# entry per doubling up to the longest int ever converted.
_POW2: dict[int, Decimal] = {}


def exact() -> ContextManager[decimal.Context]:
    """A ``with`` block running under the exact context."""
    return decimal.localcontext(_CONTEXT)


def to_decimal(n: int) -> Decimal:
    """Decimal(n), in subquadratic time for long n."""
    if n.bit_length() <= _DIRECT_BITS:
        return Decimal(n)
    with exact():
        magnitude = _split(abs(n), n.bit_length())
        return -magnitude if n < 0 else magnitude


def _split(n: int, bits: int) -> Decimal:
    """Decimal(n) for 0 <= n < 2**bits, splitting off the low w bits, with
    w the largest power of two below bits."""
    if bits <= _DIRECT_BITS:
        return Decimal(n)
    w = 1 << (bits - 1).bit_length() - 1
    high = n >> w
    return _split(high, bits - w) * _pow2(w) + _split(n - (high << w), w)


def _pow2(w: int) -> Decimal:
    power = _POW2.get(w)
    if power is None:
        if w <= _DIRECT_BITS:
            power = Decimal(2) ** w
        else:
            half = _pow2(w >> 1)
            power = half * half
        _POW2[w] = power
    return power
