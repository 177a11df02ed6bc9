"""Differential tests of the CLI against the benchmark's oracles.

bench/oracles.py computes every value a second way and never imports
gapseq, so it shares no code with the fast paths it checks. Specs of
every family it knows are drawn, with negative Horadam coefficients, a
Horadam shift and geometric offsets, together with --from, --count, the
gap-sum kind and the format; ``cli.run`` runs in process and its stdout
goes through the oracles' own output checks.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from gapseq.cli import run

_spec = importlib.util.spec_from_file_location(
    "bench_oracles", Path(__file__).resolve().parents[1] / "bench" / "oracles.py")
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)

# Product bits per gapprod run, estimated before anything is multiplied;
# it keeps each product within the 4300 digits json.loads reads.
PRODUCT_BITS = 12_000

small = st.integers(-30, 30)
SPECS = st.one_of(
    st.tuples(st.just("horadam"), small, small, st.integers(-4, 4), st.integers(-4, 4),
              st.integers(0, 5)),
    st.tuples(st.just("linear"), st.integers(0, 40), st.integers(-60, 60)),
    st.tuples(st.just("geom"), st.integers(2, 6), st.integers(-60, 60)),
    st.tuples(st.just("poly"), small, small, st.integers(-5, 5)),
    st.tuples(st.just("binom"), st.integers(0, 12), st.integers(1, 5)),
    st.tuples(st.sampled_from(["primes", "fold"])),
)
COUNTS = st.integers(0, 30)
FORMATS = st.sampled_from(["text", "csv", "json"])


def spec_text(spec: tuple) -> str:
    family, *p = spec
    if family == "poly":
        a, b, c = p  # oracles: a + b n(n+1)/2 + c n^2, so C1 = b/2 and C2 = b/2 + c
        return f"poly:{a},{b}/2,{b + 2 * c}/2"
    return f"{family}:{','.join(map(str, p))}" if p else family


def cli_out(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(argv) == 0, argv
    return out.getvalue()


def gap_product(a: int, b: int) -> int:
    """oracles.gap_product, which takes a long gap from 1 up, extended to a
    long gap below 1 by reflection: the product of lo..hi-1 is (-1)**n times
    that of 1-hi..-lo."""
    lo, hi = a + 1, b
    if hi <= 0 and hi - lo > oracles.BRUTE_FORCE_WIDTH:
        return (-1) ** (hi - lo) * oracles.product(1 - hi, 1 - lo)
    return oracles.gap_product(a, b)


def product_count(values: list[int]) -> int:
    """The longest prefix of gaps whose products have at most PRODUCT_BITS
    bits in all, by the bound width * bits of the larger end."""
    total = 0
    for n in range(len(values) - 1):
        a, b = values[n], values[n + 1]
        total += max(b - a - 1, 0) * max(abs(a), abs(b)).bit_length()
        if total > PRODUCT_BITS:
            return n
    return len(values) - 1


def check(fmt: str, want: list[int], argv: list[str], n0: int = 0) -> None:
    out = cli_out(argv)
    assert oracles.check_indexed(fmt, want, out, n0) is None, (argv, out)


@settings(max_examples=120, deadline=None)
@given(SPECS, st.integers(0, 50), COUNTS, FORMATS)
def test_terms(spec, start, count, fmt):
    argv = ["terms", "--spec", spec_text(spec), "--count", str(count), "--from", str(start),
            "--format", fmt]
    check(fmt, oracles.spec_terms(spec, start, count), argv, start)


@settings(max_examples=120, deadline=None)
@given(SPECS, COUNTS, st.sampled_from(["clamped", "signed", "abs"]), FORMATS)
def test_gapsum(spec, count, kind, fmt):
    flags = [] if kind == "clamped" else [f"--{kind}"]
    argv = ["gapsum", "--spec", spec_text(spec), "--count", str(count), *flags, "--format", fmt]
    check(fmt, oracles.gap_sums(oracles.spec_terms(spec, 0, count + 1), kind), argv)


@settings(max_examples=120, deadline=None)
@given(SPECS, COUNTS, FORMATS)
def test_gapprod(spec, count, fmt):
    values = oracles.spec_terms(spec, 0, count + 1)
    count = product_count(values)
    want = [gap_product(values[n], values[n + 1]) for n in range(count)]
    check(fmt, want, ["gapprod", "--spec", spec_text(spec), "--count", str(count),
                      "--format", fmt])


@settings(max_examples=120, deadline=None)
@given(SPECS, COUNTS)
def test_gaps_csv(spec, count):
    out = cli_out(["gaps", "--spec", spec_text(spec), "--count", str(count), "--format", "csv"])
    assert oracles.check_gaps_csv(oracles.spec_terms(spec, 0, count + 1), out) is None, out
