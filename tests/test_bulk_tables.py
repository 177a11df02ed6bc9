"""Differential tests pinning the bulk tables to slow references.

The prime table is one sieve over the odd numbers below Rosser's bound,
the paper-folding walk is built from slice-assigned bits, and ``gaps``
prints its text and csv rows from ``gap_span_between`` pairs. Each is
checked here against the plainest code that defines it: trial division,
the recurrence a(n+1) = a(n) + 1 - 2*fold(n) with the per-index
``fold``, and rows built from ``gap_between``. Both caches are also read
by many threads at once, from a fresh start.
"""

import contextlib
import random
import sys
import threading
from itertools import takewhile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapseq.folding as folding
import gapseq.sequences as sequences
from gapseq.cli import parse_spec, run
from gapseq.folding import a088748, fold, walk
from gapseq.gaps import _WIDE_LENGTH as WIDE
from gapseq.gaps import gap_between, gap_span_between, product_range
from gapseq.sequences import nth_prime, terms

from conftest import balanced_product


def _trial_division_primes(count: int) -> list[int]:
    found: list[int] = []
    candidate = 2
    while len(found) < count:
        if all(candidate % p for p in takewhile(lambda p: p * p <= candidate, found)):
            found.append(candidate)
        candidate += 1
    return found


def _recurrence_walk(count: int) -> list[int]:
    values = [1]
    for n in range(count - 1):
        values.append(values[-1] + 1 - 2 * fold(n))
    return values


PRIMES = _trial_division_primes(8000)
WALK = _recurrence_walk(2**15)


@contextlib.contextmanager
def fresh_caches():
    """Both tables as at import, restored afterwards."""
    saved = sequences._primes, folding._walk
    sequences._primes, folding._walk = [2, 3, 5, 7, 11, 13], [1]
    try:
        yield
    finally:
        sequences._primes, folding._walk = saved


def assert_prime_prefix():
    table = sequences._primes
    assert table == PRIMES[: len(table)] or table[: len(PRIMES)] == PRIMES


def assert_walk_prefix():
    table = folding._walk
    assert table == WALK[: len(table)] or table[: len(WALK)] == WALK


class TestPrimeTable:
    @pytest.mark.parametrize("order", [
        [0, 5, 6, 12, 100, 5999],  # small then large, several growth steps
        [5999, 100, 12, 6, 5, 0],  # large then small: one sieve
        [6, 7, 13, 25, 49, 97, 193, 385, 769, 1537, 3073, 5999],  # one past each doubling
    ])
    def test_growth_orders(self, order):
        with fresh_caches():
            for n in order:
                assert nth_prime(n) == PRIMES[n]
                assert_prime_prefix()

    @pytest.mark.parametrize("count", [*range(1, 40), 100, 1000, 5999, 6000])
    def test_first_sieve_holds_the_count(self, count):
        with fresh_caches():
            assert terms(sequences.Primes(), 0, count) == PRIMES[:count]
            assert len(sequences._primes) >= count
            assert_prime_prefix()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 5999), min_size=1, max_size=8))
    def test_any_order_of_indices(self, indices):
        with fresh_caches():
            for n in indices:
                assert nth_prime(n) == PRIMES[n]
            assert_prime_prefix()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5000), st.integers(0, 999)), min_size=1,
                    max_size=5))
    def test_runs_slice_the_table(self, runs):
        with fresh_caches():
            for n0, count in runs:
                assert terms(sequences.Primes(), n0, count) == PRIMES[n0 : n0 + count]
            assert_prime_prefix()

    def test_table_at_least_doubles(self):
        with fresh_caches():
            nth_prime(6)
            assert len(sequences._primes) >= 12
            grown = len(sequences._primes)
            nth_prime(grown)
            assert len(sequences._primes) >= 2 * grown

    @pytest.mark.parametrize("limit", [2, 3, 14, 15, 16, 17, 100, 7919, 7920, 40000])
    def test_sieve_holds_every_prime_below_its_limit(self, limit):
        with fresh_caches():
            table = sequences._sieve(limit)
            assert table is sequences._primes
            assert [p for p in table if p < limit] == [p for p in PRIMES if p < limit]
            assert_prime_prefix()

    def test_the_100000th_prime(self, capsys):
        with fresh_caches():
            assert run(["terms", "--spec", "primes", "--from", "99999", "--count", "1"]) == 0
            assert capsys.readouterr().out == "1299709\n"
            assert_prime_prefix()

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 7999).map(lambda n: ("nth", n)),
                              st.integers(WIDE + 1, 9 * WIDE).map(lambda hi: ("product", hi))),
                    min_size=1, max_size=4))
    def test_wide_products_and_indices_share_the_table(self, steps):
        """A wide product sieves to its own bound: no later nth_prime
        changes, and the table stays a prefix of the primes."""
        with fresh_caches():
            for kind, arg in steps:
                if kind == "nth":
                    assert nth_prime(arg) == PRIMES[arg]
                else:
                    lo = arg - WIDE
                    assert product_range(lo, arg) == balanced_product(lo, arg)
                assert_prime_prefix()
            assert [nth_prime(n) for n in (0, 1, 999, 7999)] == [PRIMES[n] for n in (0, 1, 999, 7999)]


WALK_SIZES = sorted({s for k in range(1, 15) for s in (2**k - 1, 2**k, 2**k + 1)})


class TestWalkTable:
    @pytest.mark.parametrize("size", WALK_SIZES)
    def test_sizes_around_powers_of_two(self, size):
        with fresh_caches():
            assert walk(0, size) == WALK[:size]
            assert a088748(size - 1) == WALK[size - 1]
            assert_walk_prefix()

    @pytest.mark.parametrize("size", WALK_SIZES)
    def test_after_growth(self, size):
        with fresh_caches():
            assert a088748(size // 3) == WALK[size // 3]
            assert walk(size // 2, size - size // 2) == WALK[size // 2 : size]
            assert a088748(size) == WALK[size]
            assert_walk_prefix()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2**14), st.integers(0, 300)), min_size=1,
                    max_size=6))
    def test_any_order_of_windows(self, windows):
        with fresh_caches():
            for n0, count in windows:
                assert walk(n0, count) == WALK[n0 : n0 + count]
                if count:
                    assert a088748(n0 + count - 1) == WALK[n0 + count - 1]
            assert_walk_prefix()

    def test_window_across_two_to_the_16(self, capsys):
        with fresh_caches():
            assert run(["terms", "--spec", "fold", "--from", "65530", "--count", "8"]) == 0
            assert capsys.readouterr().out == "5 4 3 4 3 2 3 4\n"
            assert_walk_prefix()

    def test_table_at_least_doubles(self):
        with fresh_caches():
            a088748(10)
            grown = len(folding._walk)
            a088748(grown)
            assert len(folding._walk) >= 2 * grown


class TestGapRows:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(-10**15, 10**15), st.integers(-10**15, 10**15))
    def test_span_is_the_integers_between(self, a, b):
        start, length = gap_span_between(a, b)
        assert (start, length) == (a + 1, len(range(a + 1, b)))
        assert gap_between(a, b).elements == range(start, start + length)

    @pytest.mark.parametrize("spec, count", [
        ("explicit:5,3,9,2,12", 4),  # empty gaps at the descents
        ("horadam:2,-1,-3,5", 9),  # descents and sign changes
        ("fold", 40),
        ("primes", 30),
        ("linear:1,0", 3),  # every gap empty
        ("fib", 0),
    ])
    def test_text_and_csv_rows(self, capsys, spec, count):
        values = terms(parse_spec(spec), 0, count + 1)
        gaps = list(map(gap_between, values, values[1:]))
        text = "".join(
            f"{n} {g.start} {g.length} {','.join(map(str, g.elements)) or '-'}\n"
            for n, g in enumerate(gaps)
        )
        csv = "n,start,length\n" + "".join(
            f"{n},{g.start},{g.length}\n" for n, g in enumerate(gaps)
        )
        for fmt, want in (("text", text), ("csv", csv)):
            assert run(["gaps", "--spec", spec, "--count", str(count), "--format", fmt]) == 0
            assert capsys.readouterr().out == want


def test_concurrent_readers_from_fresh_caches():
    """8 threads read both tables, with mixed indices, while they grow;
    each also sieves the prime table through one wide product."""
    failures = []
    start = threading.Barrier(8)
    wide = {hi: balanced_product(hi - WIDE, hi) for hi in (2 * WIDE, 5 * WIDE)}

    def reader(seed: int) -> None:
        rng = random.Random(seed)
        hi = rng.choice(list(wide))
        start.wait()
        if product_range(hi - WIDE, hi) != wide[hi]:
            failures.append((seed, hi))
        for _ in range(200):
            n = rng.choice((rng.randrange(50), rng.randrange(6000)))
            m = rng.choice((rng.randrange(64), rng.randrange(len(WALK) - 300)))
            count = rng.randrange(300)
            try:
                got = (nth_prime(n), a088748(m), walk(m, count))
            except Exception as exc:  # a thread's exception would not fail the test
                got = exc
            if got != (PRIMES[n], WALK[m], WALK[m : m + count]):
                failures.append((seed, n, m, count, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        with fresh_caches():
            threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert_prime_prefix()
            assert_walk_prefix()
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
