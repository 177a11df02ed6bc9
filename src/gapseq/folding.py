"""Regular paper-folding bits (A014707) and the walk they drive (A088748)."""

from __future__ import annotations

from _thread import allocate_lock
from itertools import accumulate

from .gaps import gap_sum_abs
from .sequences import Fold, SeqSpec, terms


def fold(n: int) -> int:
    """n-th regular paper-folding bit.

    fold(4n) = 0, fold(4n+2) = 1, fold(2n+1) = fold(n).
    """
    if n < 0:
        raise IndexError(f"fold index must be >= 0, got {n}")
    while n & 1:
        n >>= 1
    return 1 if n % 4 == 2 else 0


_WALK_LOCK = allocate_lock()
_walk: list[int] = [1]


def a088748(n: int) -> int:
    """a(0) = 1, a(n+1) = a(n) + 1 - 2*fold(n); steps are always +1 or -1."""
    if n < 0:
        raise IndexError(f"walk index must be >= 0, got {n}")
    if n >= len(_walk):
        _grow_walk(max(n + 1, 2 * len(_walk)))
    return _walk[n]


def walk(n0: int, count: int) -> list[int]:
    """a088748(n0) .. a088748(n0+count-1): the cached walk grown once, then sliced."""
    if count > 0:
        a088748(n0 + count - 1)
    return _walk[n0 : n0 + count]


def _grow_walk(size: int) -> None:
    """Make _walk hold at least a(0) .. a(size-1), built whole and swapped in.

    bits[i] = fold(i) for i < size - 1, by slices: the bits at 4n + 2
    are 1, then fold(2n+1) = fold(n) copies the first half onto the odd
    places. Each copy fixes one more trailing 1-bit of the index, and no
    index below size has more than size.bit_length() of them.
    """
    global _walk
    with _WALK_LOCK:
        if len(_walk) >= size:
            return
        bits = bytearray(size - 1)
        bits[2::4] = b"\x01" * len(range(2, size - 1, 4))
        odd = (size - 1) // 2
        for _ in range(size.bit_length()):
            bits[1::2] = bits[:odd]
        _walk = list(accumulate(map((1, -1).__getitem__, bits), initial=1))


def descent_marker(spec: SeqSpec, n: int) -> int:
    """2*a_n - 1 where the sequence steps down by exactly 1, else 0."""
    a, b = terms(spec, n, 2)
    return 2 * a - 1 if b - a == -1 else 0


def fold_identity_check(n: int) -> bool:
    """Whether the walk's absolute gap-sum minus its descent marker equals
    four times the paper-folding bit at n."""
    spec = Fold()
    return gap_sum_abs(spec, n) - descent_marker(spec, n) == 4 * fold(n)
