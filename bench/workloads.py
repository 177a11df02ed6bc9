"""Seeded job lists for the three workloads.

A job is one gapseq invocation: a CLI command line (``cli``) or one
library call (``lib``). The seed picks every parameter from a fixed,
narrow range, so the job list, and with it the work a round does, has
the same shape and nearly the same cost for every seed. The expected
result of each job comes from ``oracles``, never from gapseq.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import oracles

# The one job whose correct outcome the program does not reach today:
# a b-file holding one byte that is not UTF-8 must fail as a b-file
# error (exit 1); parse_bfile raises UnicodeDecodeError instead, which
# the CLI reports as a usage error (exit 2). Its input is fixed.
NON_UTF8_JOB = "check-oeis non-utf8 bfile"


@dataclass
class Job:
    name: str
    payload: dict  # sent to the job process: {"cli": argv} or {"lib": ...}
    values: int  # values the job produces, for sequences.term_calls_per_value
    # Parent-side check of (exit code, stdout, stderr); lib jobs are
    # checked inside the job process by the digest in payload["want"].
    check: Optional[Callable[[int, str, str], Optional[str]]] = None
    known_fault: bool = False
    _want: object = field(default=None, repr=False)

    def cached(self, make: Callable[[], object]):
        """The expected output, built on first use and kept for later rounds."""
        if self._want is None:
            self._want = make()
        return self._want


def _spec_text(spec: tuple) -> str:
    family, *p = spec
    if family in ("primes", "fold"):
        return family
    if family == "poly":
        a, b, c = p  # a + b n(n+1)/2 + c n^2 as ascending coefficients
        return f"poly:{a},{Fraction(b, 2)},{Fraction(b + 2 * c, 2)}"
    return f"{family}:{','.join(str(v) for v in p)}"


def _fmt_args(fmt: str) -> list[str]:
    return [] if fmt == "text" else ["--format", fmt]


def _bounded(values: list[int]) -> list[int]:
    top = max((abs(v).bit_length() for v in values), default=0)
    if top > oracles.MAX_BITS:
        raise AssertionError(f"workload value of {top} bits would exceed 4300 digits")
    return values


def _indexed_job(name, cmd, spec, count, fmt, extra=(), start=0, kind="clamped") -> Job:
    argv = [cmd, "--spec", _spec_text(spec), "--count", str(count), *extra, *_fmt_args(fmt)]
    if start:
        argv += ["--from", str(start)]

    def expected():
        if cmd == "terms":
            values = oracles.spec_terms(spec, start, count)
        else:
            terms = oracles.spec_terms(spec, 0, count + 1)
            if cmd == "gapprod":
                values = [oracles.gap_product(terms[i], terms[i + 1]) for i in range(count)]
            else:
                values = oracles.gap_sums(terms, kind)
        _bounded(values)
        return values if fmt == "json" else oracles.render_indexed(fmt, values, start)

    def check(code, out, err):
        if code != 0:
            return f"exit {code}: {err[-300:]}"
        want = job.cached(expected)
        if fmt == "json":
            return oracles.check_indexed(fmt, want, out, start)
        return None if out == want else f"{fmt} output differs from the oracle"

    job = Job(name, {"cli": argv}, count, check)
    return job


def _exit0(verify):
    def check(code, out, err):
        return f"exit {code}: {err[-300:]}" if code != 0 else verify(out)

    return check


# ---------------------------------------------------------------------------
# stream: CLI terms, gap sums, gap rows and small products over long runs


def stream(rng: random.Random, workdir: Path) -> list[Job]:
    r = rng.randrange
    fib, pell = ("horadam", 0, 1, 1, 1, 0), ("horadam", 0, 1, 2, 1, 0)
    jac = ("horadam", 0, 1, 1, 2, 0)
    jobs = [
        _indexed_job("terms fib", "terms", fib, r(6000, 6050), "text", start=r(0, 100)),
        _indexed_job("terms pell json", "terms", pell, r(3900, 4000), "json", start=r(0, 200)),
        _indexed_job("terms horadam csv", "terms",
                     ("horadam", r(1, 20), r(1, 20), 1, 2, r(0, 6)), r(5300, 5400), "csv"),
        _indexed_job("gapsum fib", "gapsum", fib, r(1400, 1430), "text"),
        _indexed_job("gapsum horadam signed json", "gapsum",
                     ("horadam", r(0, 10), r(0, 10), 1, 1, r(0, 6)), r(750, 765), "json",
                     extra=["--signed"], kind="signed"),
        _indexed_job("gapsum jacobsthal signed", "gapsum", jac, r(710, 725), "text",
                     extra=["--signed"], kind="signed"),
        _indexed_job("gapsum fold abs", "gapsum", ("fold",), r(40000, 41000), "text",
                     extra=["--abs"], kind="abs"),
        _indexed_job("gapsum primes csv", "gapsum", ("primes",), r(16000, 16300), "csv"),
        _indexed_job("gapsum poly", "gapsum", ("poly", r(0, 50), r(1, 7), r(0, 4)),
                     r(8000, 8100), "text"),
        _indexed_job("gapsum geom signed csv", "gapsum", ("geom", 2, r(-50, 51)),
                     r(2750, 2800), "csv", extra=["--signed"], kind="signed"),
        _indexed_job("gapsum linear json", "gapsum", ("linear", r(2, 21), r(0, 100)),
                     r(57000, 57400), "json"),
        _indexed_job("gapsum binom abs", "gapsum", ("binom", r(0, 10), r(2, 5)),
                     r(43000, 43400), "text", extra=["--abs"], kind="abs"),
        _indexed_job("terms geom", "terms", ("geom", 3, r(-50, 51)), r(3800, 3850), "text"),
        _indexed_job("terms primes json", "terms", ("primes",), r(30000, 30500), "json"),
        _indexed_job("terms poly csv", "terms", ("poly", r(0, 50), r(1, 7), r(0, 4)),
                     r(20000, 20200), "csv"),
        _indexed_job("gapprod linear", "gapprod", ("linear", r(3, 7), r(1, 50)),
                     r(26000, 26200), "text"),
        _indexed_job("gapprod binom json", "gapprod", ("binom", r(0, 6), 2), r(600, 610),
                     "json"),
    ]
    for name, spec, count in (
        ("gaps pell csv", pell, r(700, 720)),
        ("gaps binom csv", ("binom", r(0, 10), r(2, 4)), r(19500, 19700)),
    ):
        argv = ["gaps", "--spec", _spec_text(spec), "--count", str(count), "--format", "csv"]

        def verify(out, spec=spec, count=count):
            return oracles.check_gaps_csv(oracles.spec_terms(spec, 0, count + 1), out)

        jobs.append(Job(name, {"cli": argv}, count, _exit0(verify)))
    return jobs


# ---------------------------------------------------------------------------
# bignum: library calls with very large exact results, never rendered


def _lib(name, func, args, oracle, oracle_args) -> Job:
    """A library call; the job process compares the digest of its result
    with the digest of the oracle's value, computed here once per run."""
    want = oracles.digest(getattr(oracles, oracle)(*oracle_args))
    return Job(name, {"lib": func, "args": args, "want": want}, 1)


def _horadam_gap_near(rng: random.Random, r: int, s: int, target: int):
    """Seeds, shift and index whose gap has within 3% of ``target`` elements."""
    while True:
        a, b, shift = rng.randrange(0, 10), rng.randrange(1, 10), rng.randrange(0, 4)
        h = oracles.horadam_terms(a, b, r, s, shift, 60)
        for n in range(59):
            if abs(h[n + 1] - h[n] - 1 - target) <= 0.03 * target:
                return (a, b, r, s, shift), n


def bignum(rng: random.Random, workdir: Path) -> list[Job]:
    r = rng.randrange
    jobs = []
    off2, off3 = r(0, 1000), r(0, 1000)
    jobs.append(_lib("gap_product geom:2", "gaps.gap_product",
                     [{"spec": "Geometric", "args": [2, off2]}, 16],
                     "gap_product", [2**16 + off2, 2**17 + off2]))
    jobs.append(_lib("gap_product geom:3", "gaps.gap_product",
                     [{"spec": "Geometric", "args": [3, off3]}, 10],
                     "gap_product", [3**10 + off3, 3**11 + off3]))
    # Five products of equal size: the median job of this workload.
    for label, (rr, ss) in (("fib-like", (1, 1)), ("jacobsthal-like", (1, 2)),
                            ("pell-like", (2, 1)), ("r=1 s=3", (1, 3)), ("r=3 s=1", (3, 1))):
        spec, n = _horadam_gap_near(rng, rr, ss, 50000)
        a, b, _, _, shift = spec
        lo, hi = oracles.horadam_terms(a, b, rr, ss, n + shift, 2)
        jobs.append(_lib(f"gap_product horadam {label}", "gaps.gap_product",
                         [{"spec": "Horadam", "args": list(spec)}, n],
                         "gap_product", [lo, hi]))
    k, c, n = r(40000, 40400), r(1, 1000), r(10, 1000)
    jobs.append(_lib("gap_product linear", "gaps.gap_product",
                     [{"spec": "Linear", "args": [k, c]}, n],
                     "gap_product", [k * n + c, k * (n + 1) + c]))
    lo = r(10**7, 10**7 + 10**5)
    hi = lo + r(80000, 81000)
    jobs.append(_lib("product_range", "gaps.product_range", [lo, hi], "product", [lo, hi]))
    n = r(20000, 20200)
    k = n // 2 + r(-100, 101)
    jobs.append(_lib("binom", "combinatorics.binom", [n, k], "binom", [n, k]))
    m = r(7000, 7100)
    jobs.append(_lib("fuss_catalan", "combinatorics.fuss_catalan", [2, m],
                     "fuss_catalan", [2, m]))
    args = [3, r(1, 10), r(7000, 7100)]
    jobs.append(_lib("raney", "combinatorics.raney", args, "raney", args))
    args = [r(5500, 5600), r(1, 3)]
    jobs.append(_lib("check_fc_identity", "combinatorics.check_fc_identity", args,
                     "fc_identity_holds", args))
    args = [r(5500, 5600), r(1, 6), r(1, 3)]
    jobs.append(_lib("check_raney_identity", "combinatorics.check_raney_identity", args,
                     "raney_identity_holds", args))
    spec = [r(0, 10), r(1, 10), 1, 1, r(0, 4)]
    n = r(100000, 101000)
    jobs.append(_lib("term horadam far", "sequences.term",
                     [{"spec": "Horadam", "args": spec}, n],
                     "horadam_term", [spec[0], spec[1], 1, 1, n + spec[4]]))
    return jobs


# ---------------------------------------------------------------------------
# verify: b-file cross-checks, generating functions, tables, identities


def _write_bfile(path: Path, start: int, values: list[int], extra: bytes = b"") -> None:
    lines = [b"# b-file written by the benchmark from its own oracles\n", extra]
    lines += [f"{start + i} {v}\n".encode() for i, v in enumerate(values)]
    path.write_bytes(b"".join(lines))


def _check_oeis_job(name, workdir, spec, kind, n_entries, fmt, rng, *, shift=0, plant=False):
    """check-oeis on a b-file of ``n_entries`` oracle values.

    shift > 0 prepends that many unrelated entries (the match is at
    +shift); shift < 0 drops that many leading values (match at shift).
    ``plant`` replaces one value in the middle with a wrong one, so the
    correct verdict is a MISMATCH at that entry's index.
    """
    count = n_entries + max(0, -shift)
    terms = oracles.spec_terms(spec, 0, count + 1)
    if kind == "terms":
        values = terms[:count]
    elif kind == "gapsum":
        values = oracles.gap_sums(terms)
    else:
        values = [oracles.gap_product(terms[i], terms[i + 1]) for i in range(count)]
    _bounded(values)
    entries = values[-shift:] if shift < 0 else values
    if shift > 0:
        entries = [rng.randrange(10**6, 10**7) for _ in range(shift)] + entries
    entries = entries[:n_entries]
    start = rng.randrange(0, 3)
    want = {"matched": True, "shift": shift,
            "compared": n_entries - shift if shift > 0 else n_entries}
    if plant:
        pos = rng.randrange(n_entries // 4, 3 * n_entries // 4)
        wrong = entries[pos] + rng.randrange(1, 1000)
        want = {"matched": False, "shift": 0, "index": start + pos,
                "expected": wrong, "got": entries[pos]}
        entries = entries[:pos] + [wrong] + entries[pos + 1:]
    path = workdir / f"{name.replace(' ', '_')}.txt"
    _write_bfile(path, start, entries)
    argv = ["check-oeis", "--spec", _spec_text(spec), "--kind", kind,
            "--id", f"A{rng.randrange(10**5, 10**6)}",
            "--bfile", str(path), *_fmt_args(fmt)]

    def check(code, out, err):
        return oracles.check_check_oeis(fmt, code, out, want)

    return Job(name, {"cli": argv}, n_entries + 4, check)


def _non_utf8_job(workdir: Path) -> Job:
    path = workdir / "non_utf8.txt"
    _write_bfile(path, 1, oracles.primes(2000), extra=b"# caf\xe9 (Latin-1 byte)\n")
    argv = ["check-oeis", "--spec", "primes", "--kind", "terms", "--id", "A000040",
            "--bfile", str(path)]

    def check(code, out, err):
        if code == 1 and not out and "error" in err:
            return None
        return f"exit {code} where a b-file error (exit 1) is right"

    return Job(NON_UTF8_JOB, {"cli": argv}, 2004, check=check, known_fault=True)


def _gf_job(name, a, b, r, s, kind, n, fmt) -> Job:
    argv = ["gf", f"--horadam={a},{b},{r},{s}", f"--{kind}", "--expand", str(n),
            *_fmt_args(fmt)]
    h = oracles.horadam_terms(a, b, r, s, 0, n + 1)
    series = {
        "gapsum": oracles.gap_sums(h, "signed"),
        "square": [v * v for v in h[:n]],
        "shift": h[1:],
    }[kind]
    _bounded(series)
    return Job(name, {"cli": argv}, n, _exit0(lambda out: oracles.check_gf(fmt, series, out)))


def verify(rng: random.Random, workdir: Path) -> list[Job]:
    r = rng.randrange
    j = _check_oeis_job
    jobs = [
        j("check-oeis primes terms", workdir, ("primes",), "terms", 27000, "text", rng),
        j("check-oeis linear gapsum json", workdir, ("linear", r(2, 21), r(0, 100)),
          "gapsum", 36000, "json", rng),
        j("check-oeis binom terms", workdir, ("binom", r(0, 10), r(2, 5)), "terms", 43000,
          "text", rng),
        j("check-oeis geom terms", workdir, ("geom", 3, r(-50, 51)), "terms", 4000, "text",
          rng),
        j("check-oeis fold gapsum shifted", workdir, ("fold",), "gapsum", 15000, "text", rng,
          shift=r(1, 5)),
        j("check-oeis poly terms shifted json", workdir, ("poly", r(0, 50), r(1, 7), r(0, 4)),
          "terms", 7000, "json", rng, shift=-r(1, 5)),
        j("check-oeis primes gapsum mismatch", workdir, ("primes",), "gapsum", 19000, "text",
          rng, plant=True),
        j("check-oeis linear gapprod mismatch json", workdir, ("linear", r(3, 7), r(1, 50)),
          "gapprod", 20000, "json", rng, plant=True),
        _non_utf8_job(workdir),
    ]
    for i, (rr, ss) in enumerate(((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1))):
        kind = ("gapsum", "square", "shift")[i % 3]
        fmt = ("text", "json")[i % 2]
        n = {"gapsum": 2300, "square": 2400, "shift": 3400}[kind]
        jobs.append(_gf_job(f"gf {kind} r={rr} s={ss} {fmt}", r(0, 10), r(1, 10), rr, ss,
                            kind, r(n, n + 20), fmt))
    num = [r(-9, 10) for _ in range(4)]
    den = [1, -1, -2]
    n = r(4000, 4020)
    want = oracles.linear_series(num, den, n)
    argv = ["expand", "--num=" + ",".join(map(str, num)), "--den=" + ",".join(map(str, den)),
            "--count", str(n)]
    jobs.append(Job("expand", {"cli": argv}, n, _exit0(
        lambda out: oracles.check_indexed("text", want, out))))
    for name in ("figurate", "fc", "raney", "horadam"):
        jobs.append(Job(f"table {name}", {"cli": ["table", name, "--format", "json"]}, 1,
                        _exit0(lambda out, name=name: oracles.check_table(name, out))))
    k, n = r(200, 300), r(1, 4)
    lhs, rhs = oracles.fc_identity(k, n)
    jobs.append(Job("check-identity fc", {"cli": ["check-identity", "--fc", f"{k},{n}"]}, 1,
                    _exit0(lambda out: oracles.check_identity_output("text", out, lhs, rhs))))
    k, rw, n = r(200, 300), r(1, 6), r(1, 4)
    lhs2, rhs2 = oracles.raney_identity(k, rw, n)
    argv = ["check-identity", "--raney", f"{k},{rw},{n}", "--format", "json"]
    jobs.append(Job("check-identity raney json", {"cli": argv}, 1, _exit0(
        lambda out: oracles.check_identity_output("json", out, lhs2, rhs2))))
    return jobs


WORKLOADS = {"stream": stream, "bignum": bignum, "verify": verify}
