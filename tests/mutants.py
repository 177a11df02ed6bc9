"""Mutation smoke for gapseq's fast paths.

Each fast path is pinned to a slow reference by value, and a route test
should fail when the path is switched off. This script checks that the
tests notice: it makes one small change (a mutant) at a time in one
listed function, runs the test files that can see that function, and
reports the mutants that every test survives.

The mutants are the selective set of operator replacement and constant
change: an arithmetic, shift or bitwise operator swapped for its
partner, a comparison made strict or loose (== and != swapped, is and
is not), ``and`` and ``or`` swapped, and an int constant raised by one.
A survivor fails the run unless ``ALLOWED`` names it with a reason:
most are thresholds that change speed only.

    python tests/mutants.py                  every target, one mutant at a time
    python tests/mutants.py --only _product  targets by function name
    python tests/mutants.py --list           the mutants, without running them

Every mutant runs in its own pytest process, one at a time, in a copy of
``src``, ``tests`` and ``bench`` in a temporary directory, so the checkout is never
changed, with its address space capped at ``_MAX_MB``. That process
starts a session of its own, and whatever is left of the session when
it ends is killed, so a forked child that a mutant leaves behind goes
with it. The mutants in ``SKIPPED`` are listed but never run: each would
let more than one process go on after a fork, or let every product
below the root fork, and their processes would multiply. It needs only
the standard library (pytest runs the tests it picks) and is not part of
the tier-1 suite: it takes minutes. Exit 0 when no survivor is
unexplained, 1 otherwise.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import copy
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_GAPS_TESTS = ("test_gaps.py", "test_bulk_tables.py", "test_combinatorics.py",
               "test_acceptance.py", "test_kernel.py", "test_cli.py", "test_cli_corpus.py",
               "test_cli_oracles.py")
_PRINTED_TESTS = ("test_gaps.py", "test_cli.py", "test_cli_corpus.py", "test_cli_oracles.py")
_RUN_TESTS = ("test_gaps.py", "test_decimal_runs.py", "test_cli.py", "test_cli_corpus.py",
              "test_cli_oracles.py")
_WRITER_TESTS = ("test_decimal_runs.py", "test_cli.py", "test_cli_corpus.py",
                 "test_cli_oracles.py")

# Address space of each pytest process, so a runaway mutant fails alone.
_MAX_MB = 2048

# (module under src/gapseq, function or class name, test files that can
# see it), the files that fail fastest first. A class is mutated in all
# of its methods.
TARGETS = (
    ("gaps.py", "product_range", _GAPS_TESTS),
    ("gaps.py", "_is_wide", _GAPS_TESTS),
    ("gaps.py", "_factorial_ratio", _GAPS_TESTS),
    ("gaps.py", "_borwein", _GAPS_TESTS),
    ("gaps.py", "_exponent_runs", _GAPS_TESTS),
    ("gaps.py", "_product", _GAPS_TESTS),
    ("gaps.py", "_mul", _GAPS_TESTS),
    ("gaps.py", "_toom3_points", _GAPS_TESTS),
    ("gaps.py", "_toom3", _GAPS_TESTS),
    ("gaps.py", "_point_products", _GAPS_TESTS),
    ("gaps.py", "_may_fork", _GAPS_TESTS),
    ("gaps.py", "_joined", _GAPS_TESTS),
    ("gaps.py", "_Child", _GAPS_TESTS),
    ("gaps.py", "_send", _GAPS_TESTS),
    ("gaps.py", "_printed_product_between", _PRINTED_TESTS),
    ("gaps.py", "_decimal_product", _PRINTED_TESTS),
    ("gaps.py", "_gaps", _RUN_TESTS),
    ("cli.py", "_write_joined", _WRITER_TESTS),
)

# Survivors that are explained, by mutant name (see --list).
ALLOWED = {
    "product_range: `n <= 0` LtE->Lt": "equivalent: an empty range's perm(x, 0) is 1",
    "product_range: `lo > 0` Gt->GtE": "equivalent: a range from 0 has returned 0",
    "product_range: `max(-lo, hi - 1)` Sub->Add": "speed only: the size estimate's top integer",
    "product_range: `hi - 1` 1->2 #2": "speed only: the size estimate's top integer",
    "_factorial_ratio: `-1` 1->2": "speed only: the cut from the next-to-last sum",
    "_factorial_ratio: `bisect_right(bits, bits[-1] // 2) if bits else 0` 0->1":
        "equivalent: with no runs both parts are empty",
    "_borwein: `(top // 2).bit_length` FloorDiv->Mult": "speed only: empty groups on top",
    "_exponent_runs: `top + 1` 1->2": "speed only: a longer sieve",
    "_exponent_runs: `bisect_right(primes, isqrt(top), 1, end)` 1->2":
        "equivalent: 3 is past isqrt(top) whenever the bisect would stop at 1",
    "_mul: `n > m` Gt->GtE": "equivalent: a swap of equal lengths",
    "_mul: `3 * n` 3->4": "speed only: which root pairs are split as lopsided",
    "_mul: `3 * n < 2 * m` Lt->LtE": "speed only: which root pairs are split as lopsided",
    "_mul: `a.bit_length() < m` Lt->LtE": "speed only: the split factor is the short one",
    "_mul: `s = m // 2` FloorDiv->Mult": "speed only: the child's half is 0, this process does all",
    "_mul: `m // 2` 2->3": "speed only: uneven halves",
    "_mul: `n < _TOOM_BITS` Lt->LtE": "speed only: threshold",
    "_mul: `3 * n < 2 * m` Lt->LtE #2": "speed only: threshold",
    "_mul: `a < 0` Lt->LtE": "equivalent: a Toom-3 factor is never 0",
    "_mul: `a < 0` 0->1": "equivalent: a Toom-3 factor is never 0",
    "_mul: `b < 0` Lt->LtE": "equivalent: a Toom-3 factor is never 0",
    "_mul: `b < 0` 0->1": "equivalent: a Toom-3 factor is never 0",
    "_mul: `(m + 2) // 3` Add->Sub": "speed only: the Toom-3 piece size",
    "_mul: `m + 2` 2->3": "speed only: the Toom-3 piece size",
    "_mul: `(m + 2) // 3` 3->4": "speed only: the Toom-3 piece size",
    "_send: `code = 1` 1->2": "equivalent: the parent reads the pipe, not the exit status",
    "_send: `code = 0` 0->1": "equivalent: the parent reads the pipe, not the exit status",
    "_send: `v.bit_length() // 8 + 1` 1->2": "equivalent: one more byte of sign extension",
    "_send: `bytes(8)` 8->9": "equivalent: the reader stops at the first zero length",
    "_is_wide: `0 < lo` Lt->LtE": "equivalent: no caller passes lo = 0",
    "_product: `hi - lo <= _LEAF` LtE->Lt": "speed only: threshold",
    "_product: `values.start > 0` Gt->GtE": "equivalent: perm is exact on a range from 0",
    "_decimal_product: `(hi - lo) * values[hi - 1].bit_length() <= _DIRECT_BITS` LtE->Lt":
        "speed only: threshold",
    "_decimal_product: `(hi - lo) * values[hi - 1].bit_length()` Sub->Add":
        "speed only: smaller leaves",
    "_decimal_product: `hi - 1` 1->2": "speed only: leaf size from the next-to-last value",
    '_write_joined: `64, ""` 64->65': "speed only: the first batch's size",
    "_write_joined: `max(1, min(2 * batch, batch * _WRITE_CHARS // len(text)))` 1->2":
        "memory only: two values a write where one value's text passes _WRITE_CHARS",
}

# Mutants that are never run, by name, with the reason.
SKIPPED = {
    "_mul: `again is not None and 3 * n < 2 * m` And->Or": "every lopsided product forks",
    "_mul: `again is not None` IsNot->Is": "every lopsided product below the root forks",
    "_mul: `again is not None` IsNot->Is #2": "every Toom-3 product below the root forks",
    "_Child: `pid == 0` Eq->NotEq": "the child goes on as the parent, which exits",
    "_Child: `pid == 0` 0->1": "the child goes on as a second parent",
}

_SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.And: ast.Or, ast.Or: ast.And,
}


def _sites(func: ast.FunctionDef | ast.ClassDef) -> list[tuple[ast.AST, ast.AST, str, tuple]]:
    """(node, the node that names it, what changes, how) for every
    mutable spot in func's body (a class's: its methods'); an operand or
    a constant is named by the expression around it."""
    body = func.body
    if isinstance(func, ast.ClassDef):  # the methods' bodies, not their annotations
        body = [stmt for m in body if isinstance(m, ast.FunctionDef) for stmt in m.body]
    parents = {child: node for stmt in body for node in ast.walk(stmt)
               for child in ast.iter_child_nodes(node)}
    sites = []
    for node in (n for stmt in body for n in ast.walk(stmt)):
        if isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in _SWAPS:
            name = node if isinstance(node, ast.BoolOp) else parents[node]
            sites.append((node, name, f"{type(node.op).__name__}->"
                          f"{_SWAPS[type(node.op)].__name__}", ("op", None)))
        elif isinstance(node, ast.Compare):
            sites += [(node, node, f"{type(op).__name__}->{_SWAPS[type(op)].__name__}",
                       ("ops", i)) for i, op in enumerate(node.ops) if type(op) in _SWAPS]
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            sites.append((node, parents[node], f"{node.value}->{node.value + 1}",
                          ("value", None)))
    return sorted(sites, key=lambda s: (s[0].lineno, s[0].col_offset, s[2]))


def _apply(node: ast.AST, how: tuple) -> None:
    field, index = how
    if field == "op":
        node.op = _SWAPS[type(node.op)]()
    elif field == "ops":
        node.ops[index] = _SWAPS[type(node.ops[index])]()
    else:
        node.value += 1


def mutants(only: set[str] | None = None) -> list[tuple[str, str, str, tuple[str, ...]]]:
    """(name, module file, mutated module source, test files) for every mutant."""
    found = []
    for module, name, tests in TARGETS:
        if only and name not in only:
            continue
        source = (ROOT / "src" / "gapseq" / module).read_text()
        tree = ast.parse(source)
        funcs = [i for i, n in enumerate(tree.body)
                 if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name]
        if len(funcs) != 1:
            raise SystemExit(f"mutants: {module} has no one function or class {name}")
        seen: dict[str, int] = {}
        for k, (_, context, change, _) in enumerate(_sites(tree.body[funcs[0]])):
            label = f"{name}: `{ast.get_source_segment(source, context)}` {change}"
            seen[label] = seen.get(label, 0) + 1
            if seen[label] > 1:
                label += f" #{seen[label]}"
            mutated = copy.deepcopy(tree)
            node, _, _, how = _sites(mutated.body[funcs[0]])[k]
            _apply(node, how)
            found.append((label, module, ast.unparse(mutated) + "\n", tests))
    return found


def _limit() -> None:
    size = _MAX_MB * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (size, size))


def _pytest(work: Path, tests: tuple[str, ...], timeout: float) -> tuple[str, str]:
    """("passed", "failed" or "timeout", the end of pytest's output)."""
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            *(f"tests/{t}" for t in tests)]
    with subprocess.Popen(argv, cwd=work, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, preexec_fn=_limit, start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
            outcome = "passed" if proc.returncode == 0 else "failed"
        except subprocess.TimeoutExpired:
            out, outcome = "", "timeout"
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
    return outcome, out[-2000:]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", nargs="+", metavar="FUNCTION", help="target function names")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    found = mutants(set(args.only) if args.only else None)
    if args.list:
        for label, *_ in found:
            print(label)
        return 0
    names = {label for label, *_ in found}
    stale = set(ALLOWED) - names | set(SKIPPED) - names if not args.only else set()
    with tempfile.TemporaryDirectory(prefix="gapseq-mutants-") as tmp:
        work = Path(tmp)
        for name in ("src", "tests", "bench"):  # tests load bench/oracles.py and tracing.py
            shutil.copytree(ROOT / name, work / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis",
                                                          ".bench_work"))
        shutil.copy(ROOT / "pyproject.toml", work)
        files = sorted({t for *_, tests in found for t in tests})
        t0 = time.perf_counter()
        outcome, output = _pytest(work, tuple(files), 3600)
        if outcome != "passed":
            print(f"{output}\nmutants: the unmutated tests fail; nothing to measure",
                  file=sys.stderr)
            return 1
        timeout = max(60.0, 5 * (time.perf_counter() - t0))
        killed, allowed, unexplained = 0, 0, []
        for label, module, source, tests in found:
            if label in SKIPPED:
                print(f"skipped ({SKIPPED[label]}): {label}", flush=True)
                continue
            path = work / "src" / "gapseq" / module
            original = path.read_text()
            path.write_text(source)
            try:
                outcome, _ = _pytest(work, tests, timeout)
            finally:
                path.write_text(original)
            if outcome != "passed":
                killed += 1
                print(f"killed ({outcome}): {label}", flush=True)
            elif label in ALLOWED:
                allowed += 1
                print(f"survived, allowed ({ALLOWED[label]}): {label}", flush=True)
            else:
                unexplained.append(label)
                print(f"SURVIVED: {label}", flush=True)
    skipped = len(names & set(SKIPPED))
    print(f"mutants: {len(found)} mutants, {skipped} skipped, {killed} killed, "
          f"{allowed} allowed survivors, {len(unexplained)} unexplained survivors")
    for label in sorted(stale):
        print(f"mutants: ALLOWED or SKIPPED names no mutant: {label}")
    return 1 if unexplained or stale else 0


if __name__ == "__main__":
    sys.exit(main())
