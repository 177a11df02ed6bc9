"""Exact decimal conversion of integers of any size.

Python 3.11+ refuses int <-> str conversions above 4300 digits by
default (``sys.set_int_max_str_digits``). gapseq's results and the
b-files it reads can be far longer, so rendering and b-file parsing run
inside ``unlimited_int_digits``, which lifts the limit and restores the
previous value afterwards. Python 3.10 has no limit and nothing changes.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from typing import Iterator

# The limit is one interpreter-wide setting, so overlapping blocks (nested,
# or in several threads) share one lift: the first to enter saves the
# limit and the last to leave restores it.
_LOCK = threading.Lock()
_active = 0
_saved = 0


@contextmanager
def unlimited_int_digits() -> Iterator[None]:
    """Lift the int/str digit limit for the duration of the block."""
    global _active, _saved
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    with _LOCK:
        if _active == 0:
            _saved = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
        _active += 1
    try:
        yield
    finally:
        with _LOCK:
            _active -= 1
            if _active == 0:
                sys.set_int_max_str_digits(_saved)
