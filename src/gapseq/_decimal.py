"""Exact integer arithmetic on ``decimal.Decimal``, and exact int <-> str.

``str`` of a Decimal is linear in its length, while ``str`` of an int
is quadratic below 4300 digits on Python 3.10-3.13 (and everywhere on
3.10 and 3.11). Stepping a recurrence with small integer coefficients
costs about the same on either type, so the CLI runs the recurrences
whose values it prints (Horadam and geometric terms, their gap sums,
and generating-function expansions at scale 1) on Decimal. It also
multiplies long narrow gap products as Decimals, over int leaves of
about _DIRECT_BITS bits that ``to_decimal`` lifts; libmpdec multiplies
huge Decimals by a number-theoretic transform.

Every operation runs under one exact context, so a caller's own decimal
context never changes: ``to_decimal`` and the printed runs under
``exact()``, which the CLI enters once around a subcommand while it
writes them, and the gap-product tree through ``_CONTEXT.multiply``. Any
rounding raises instead of losing digits. Only integer operations are meant to
run under it: +, -, *, an exact // and unary plus. A true division that
does not terminate would try to compute MAX_PREC digits.

``int_to_str``, ``str_to_int`` and ``show`` are exact and subquadratic
under any int/str digit limit (4300 digits by default), which they never
change: past it they hand the builtins pieces under 640 digits, the
least limit. A message quotes a number through ``_shown``, which cuts
it to 40 characters as ``_quoted`` cuts any other text.
"""

from __future__ import annotations

import decimal
import re
import sys
from collections.abc import Callable
from decimal import Decimal
from fractions import Fraction
from functools import cache

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

# Ints up to this many bits print through str, faster up to about here.
_STR_BITS = 14000
# Digits per leaf of str_to_int's split, within any digit limit.
_LEAF_DIGITS = 600
_DIGIT_RUN = re.compile(r"[+-]?[0-9]+")

# The int/str digit limit in force: 0 where it is lifted or absent (before 3.10.7).
digit_limit = getattr(sys, "get_int_max_str_digits", int)


def exact():
    """A ``with`` block running under the exact context (``decimal.localcontext``)."""
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


@cache
def _pow2(w: int) -> Decimal:
    """Decimal(2)**w for w a power of two, cached; run under the exact context."""
    return Decimal(2) ** w if w <= _DIRECT_BITS else _pow2(w >> 1) * _pow2(w >> 1)


def int_to_str(n: int) -> str:
    """str(n) at any size and under any int/str digit limit."""
    if n.bit_length() <= _STR_BITS:
        try:
            return str(n)
        except ValueError:  # a digit limit lowered below n's length
            pass
    return str(to_decimal(n))


def show(v: object) -> str:
    """str(v), exact at any size under any int/str digit limit: an int
    through int_to_str, and a Fraction as its numerator through it, then
    "/" and its denominator unless it is whole. The one renderer of an
    exact number, for output and for the error messages that quote one."""
    if isinstance(v, int):
        return int_to_str(v)
    if type(v) is Fraction:  # type(), not isinstance: the ABC check is slow
        whole = int_to_str(v.numerator)
        return whole if v.denominator == 1 else f"{whole}/{int_to_str(v.denominator)}"
    return str(v)


def _quoted(text: str, quote: Callable[[str], str] = repr) -> str:
    """quote(text), or of its first 40 characters and its length if longer:
    the one rule for echoing outside text or a number in a message."""
    return f"{quote(text[:40])}... of {len(text)} characters" if len(text) > 40 else quote(text)


def _shown(v: object) -> str:
    """show(v) for a message, cut by _quoted's rule."""
    return _quoted(show(v), str)


def str_suits(values: list) -> bool:
    """Whether the builtin str may print values: it refuses every int past
    4300 digits, as under the default int/str digit limit or a lower one,
    or values are ints of at most _STR_BITS bits. Where the limit is lifted
    (``digit_limit()`` is 0) str is quadratic at any length."""
    if 0 < digit_limit() <= 4300:
        return True
    try:
        return max(map(int.bit_length, values), default=0) <= _STR_BITS
    except TypeError:  # a value that is not an int
        return False


def str_to_int(text: str) -> int:
    """int(text) at any length and under any int/str digit limit: int()
    itself where it takes text, and past the limit only ``[+-]?[0-9]+``."""
    try:
        return int(text)
    except ValueError:
        if not _DIGIT_RUN.fullmatch(text):
            raise
    magnitude = _from_digits(text.lstrip("+-"))
    return -magnitude if text[0] == "-" else magnitude


def _from_digits(digits: str) -> int:
    """int(digits) for a run of ASCII digits, splitting off the low k
    digits, with k the largest _LEAF_DIGITS * 2**j below its length."""
    if len(digits) <= _LEAF_DIGITS:
        return int(digits)
    k = _LEAF_DIGITS << ((len(digits) - 1) // _LEAF_DIGITS).bit_length() - 1
    return _from_digits(digits[:-k]) * _pow10(k) + _from_digits(digits[-k:])


@cache
def _pow10(k: int) -> int:
    return 10**k if k <= _LEAF_DIGITS else _pow10(k >> 1) ** 2
