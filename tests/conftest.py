import contextlib
import random
import sys
from math import prod
from pathlib import Path

import pytest
from hypothesis import strategies as st

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def load_fixture(name: str) -> bytes:
    return (FIXTURES / name).read_bytes()


# Taken at import, so that a test which makes gapseq's own use of the
# setter fail (``limit_untouched``) can still change the limit itself.
_set_limit = getattr(sys, "set_int_max_str_digits", None)
HAS_DIGIT_LIMIT = _set_limit is not None


@contextlib.contextmanager
def int_digit_limit(limit: int):
    """Run the block under this int/str digit limit (0 lifts it) on Python
    3.11+, and restore the previous one; Python 3.10 has no limit."""
    if _set_limit is None:
        yield
        return
    saved = sys.get_int_max_str_digits()
    _set_limit(limit)
    try:
        yield
    finally:
        _set_limit(saved)


@pytest.fixture
def limit_untouched(monkeypatch):
    """Fail any call of sys.set_int_max_str_digits during the test."""

    def refuse(limit):
        raise AssertionError(f"sys.set_int_max_str_digits({limit}) was called")

    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)


# Lengths around the thresholds of exact int <-> str conversion: the
# 600-digit leaves of str_to_int, the least digit limit the interpreter
# accepts (640), the default limit (4300 digits, about 14284 bits), the
# 2048-bit pieces of to_decimal and int_to_str's switch at 14000 bits.
EDGE_DIGITS = (1, 2, 599, 600, 601, 639, 640, 641, 1200, 1201, 4299, 4300, 4301, 14000)
EDGE_BITS = (2048, 2049, 13999, 14000, 14001, 14284, 14285, 50000)


def _digits_long(length: int, seed: int) -> int:
    low = 10 ** (length - 1)
    return low + random.Random(seed).randrange(9 * low)


def _bits_long(bits: int, seed: int) -> int:
    return random.Random(seed).getrandbits(bits) | 1 << (bits - 1)


def sized_ints():
    """Ints of either sign, zero and small ones among them, most of them
    exactly as long as one of EDGE_DIGITS or EDGE_BITS. Long ones grow
    from a seed, which keeps Hypothesis' own data small."""
    seeds = st.integers(0, 2**32)
    magnitudes = st.one_of(
        st.just(0),
        st.integers(0, 10**30),
        st.builds(_digits_long, st.sampled_from(EDGE_DIGITS), seeds),
        st.builds(_bits_long, st.sampled_from(EDGE_BITS), seeds),
        st.sampled_from(EDGE_DIGITS).map(lambda d: 10**d - 1),
        st.sampled_from(EDGE_DIGITS).map(lambda d: 10**d),
    )
    return st.builds(lambda m, negative: -m if negative else m, magnitudes, st.booleans())


def balanced_product(lo: int, hi: int) -> int:
    """The balanced split product_range used for every range before it
    gained the prime-exponent path: the reference for both paths."""
    n = hi - lo
    if n <= 64:
        return prod(range(lo, hi))
    mid = lo + n // 2
    return balanced_product(lo, mid) * balanced_product(mid, hi)
