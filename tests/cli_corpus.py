"""Byte-identity corpus of gapseq command lines.

``cli_corpus.json`` holds one entry per argv: the exit code of
``gapseq.cli.run(argv)`` in this process with COLUMNS=100, the sha256
and byte length of its stdout and the sha256 of its stderr. Help and
argparse usage errors are marked ``argparse`` and hold the exit code
alone, because argparse words its text differently across Python
versions. Each entry runs under the int/str digit limits 640 (the least
one), 4300 (the default) and 0 (none); an argv holding a number longer
than 640 digits cannot parse under 640 and skips it.

    python tests/cli_corpus.py           check this checkout against the corpus,
                                         with every warning an error
    python tests/cli_corpus.py --record  run ARGVS and write the corpus anew

Run it from anywhere: it imports gapseq from this checkout's ``src`` and
runs with the repository root as working directory, so the fixture paths
below are relative. It needs only the standard library, so interpreters
without pytest can check it too. After an intended change of output,
record again and review the diff of ``cli_corpus.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).resolve().parent / "cli_corpus.json"
LIMITS = (640, 4300, 0)
FIXTURES = "tests/fixtures"

FORMATS = ("text", "json", "csv")
SPECS = (
    "fib", "jacobsthal", "pell", "primes", "fold", "linear:3,1", "linear:0,-5", "geom:2",
    "geom:3,-1", "geom:2,-50", "poly:0,1/2,1/2", "poly:1,-3,0,2", "binom:2,3",
    "horadam:1,3,1,2", "horadam:0,1,1,2,2", "horadam:0,0,-1,-1", "horadam:2,-1,-3,5",
    "explicit:5,3,9,2,12,0,-4,7,7,20,1,15,30",
)
# The edge specs of the spec grammar, and errors at each argument position.
EDGE_SPECS = (
    "poly:", "poly: ", "explicit:", "explicit:a", "linear", "poly", ":1", "geom:1,2,3",
    "poly:1,x", "poly:1/0", "horadam:1,2,3", "binom:-1,2", "geom:1", "poly:0,1/3",
    "poly:1,3/2", " fib ", "linear: 3 , 1", "explicit:5", "horadam:1,x,3,4", "linear:3,,1",
    "poly:1, 2/0", "linear:3;1", "tribonacci:1,1", "poly:1/2", "explicit:1, 2 ,x",
    " geom:2, 1 ", "geom:2,1,", "horadam:0,1,1,1,-1", "linear:-1,0", "binom:0,0",
)
HORADAMS = ("1,1,1,1", "0,1,1,2", "2,1,1,1", "0,1,2,1", "3,-2,1,-1")
LONG = "9" * 600  # 600 digits: parses under every limit
TOO_LONG = "7" * 700  # parses under 4300 and 0 only
WORD = "x" * 5000  # no number at all


def _spec_argvs() -> list[list[str]]:
    argvs = []
    for spec in SPECS:
        for fmt in FORMATS:
            argvs += [
                ["terms", "--spec", spec, "--count", "12", "--format", fmt],
                ["gaps", "--spec", spec, "--count", "8", "--format", fmt],
                ["gapprod", "--spec", spec, "--count", "8", "--format", fmt],
            ]
            argvs += [["gapsum", "--spec", spec, "--count", "10", "--format", fmt, *kind]
                      for kind in ([], ["--signed"], ["--abs"])]
        argvs += [["terms", "--spec", spec, "--count", count, "--from", start]
                  for start, count in (("0", "0"), ("0", "1"), ("1", "2"), ("7", "5"),
                                       ("100", "3"))]
        argvs.append(["gapsum", "--spec", spec, "--count", "0"])
    argvs += [["terms", "--spec", spec, "--count", "3"] for spec in EDGE_SPECS]
    return argvs


def _gf_argvs() -> list[list[str]]:
    argvs = []
    for h in HORADAMS:
        for kind in ("", "--plain", "--shift", "--square", "--square-shift", "--gapsum"):
            flags = [kind] if kind else []
            argvs += [["gf", "--horadam", h, *flags, "--format", fmt] for fmt in ("text", "json")]
            argvs += [["gf", "--horadam", h, *flags, "--expand", "9", "--format", fmt]
                      for fmt in FORMATS]
    argvs += [
        ["gf", "--horadam", "1,1,1,1", "--format", "csv"],
        ["gf", "--horadam", "0,1,1,1", "--expand", "0"],
        ["gf", "--horadam", "0,1," + LONG + ",1", "--square", "--format", "json"],
        ["gf", "--horadam", "0,1," + LONG + ",1", "--square", "--format", "text"],
    ]
    for num, den in (("1", "1,-1,-1"), ("1/2,1", "1,-1/3"), ("0,1", "1,-2,1"),
                     ("1,2,3", "1"), ("1", "0,1"), ("1", "2,-1"), ("1/3,2", "1,-" + LONG + "/7")):
        argvs += [["expand", "--num", num, "--den", den, "--count", "10", "--format", fmt]
                  for fmt in FORMATS]
    argvs.append(["expand", "--num", "1", "--den", "1,-1", "--count", "0"])
    # Reduction: a shared factor, a zero numerator, num = den, trailing zeros of
    # den, and a negative den(0), with integer and rational coefficients.
    for num, den in (("1,-1", "1,-3,2"), ("0", "5"), ("1,2", "1,2"), ("1,1", "1,0,0"),
                     ("1,2", "-2,1,1"), ("1/2,-3/2,1", "-3/4,9/4,-3/2")):
        argvs += [["expand", f"--num={num}", f"--den={den}", "--count", "10", "--format", fmt]
                  for fmt in FORMATS]
    return argvs


def _scalar_argvs() -> list[list[str]]:
    argvs = []
    for fmt in ("text", "json"):
        argvs += [
            ["fc", "--p", "3", "--m", "4", "--format", fmt],
            ["fc", "--p", "0", "--m", "0", "--format", fmt],
            ["fc", "--p", "1", "--m", "20000", "--format", fmt],
            ["raney", "--p", "3", "--r", "2", "--n", "4", "--format", fmt],
            ["raney", "--p", "2", "--r", "9", "--n", "1", "--format", fmt],
            ["raney", "--p", "2", "--r", "3", "--n", "9000", "--format", fmt],
            ["check-identity", "--fc", "3,4", "--format", fmt],
            ["check-identity", "--fc", "3000,2", "--format", fmt],
            ["check-identity", "--raney", "3,2,4", "--format", fmt],
            ["check-identity", "--raney", "3000,2,3", "--format", fmt],
            ["check-identity", "--fc", "-1,2", "--format", fmt],
            ["check-identity", "--fc", "2,-1", "--format", fmt],
            ["check-identity", "--raney", "3,2,-1", "--format", fmt],
        ]
        argvs += [["table", name, "--format", fmt]
                  for name in ("figurate", "fc", "raney", "horadam")]
    return argvs


def _check_oeis_argvs() -> list[list[str]]:
    cases = (
        ("A000217", "poly:0,1/2,1/2", "terms", []),
        ("A006002", "poly:0,1/2,1/2", "gapsum", []),
        ("A054265", "primes", "gapsum", []),
        ("A103897", "geom:2", "gapsum", []),
        ("A109454", "fib", "gapsum", []),
        ("A109454", "fib", "gapprod", []),
        ("A109454", "fib", "terms", ["--max-shift", "0"]),
        ("A109454", "horadam:0,1,1,1,3", "gapsum", ["--max-shift", "0"]),
        ("A109454", "horadam:0,1,1,1,3", "gapsum", ["--max-shift", "4"]),
        ("A000217", "pell", "terms", ["--max-shift", "1", "--count", "9"]),
        ("A000217", "poly:0,1/2,1/2", "terms", ["--count", "0"]),
        ("A000217", "poly:0,1/2,1/2", "terms", ["--count", "3"]),
        ("A054265", "explicit:2,3,5,7,11", "gapsum", []),
        ("A054265", "linear:3,1", "gapprod", []),
    )
    argvs = []
    for seq_id, spec, kind, extra in cases:
        bfile = f"{FIXTURES}/b{seq_id[1:]}.txt"
        argvs += [["check-oeis", "--spec", spec, "--kind", kind, "--id", seq_id,
                   "--bfile", bfile, *extra, "--format", fmt] for fmt in ("text", "json")]
    # A000217 after a UTF-8 comment line, after a byte-order mark and with
    # CRLF line ends; and a Latin-1 byte after a malformed line, which the
    # UTF-8 error names first.
    for variant, spec in (("utf8_comment", "poly:0,1/2,1/2"), ("bom", "poly:0,1/2,1/2"),
                          ("crlf", "poly:0,1/2,1/2"), ("crlf", "pell"),
                          ("bad_utf8", "poly:0,1/2,1/2")):
        argvs += [["check-oeis", "--spec", spec, "--kind", "terms", "--id", "A000217",
                   "--bfile", f"{FIXTURES}/b000217_{variant}.txt", "--format", fmt]
                  for fmt in ("text", "json")]
    argvs += [
        ["check-oeis", "--spec", "fib", "--kind", "terms", "--id", "A000045",
         "--bfile", f"{FIXTURES}/b000045.txt"],
        ["check-oeis", "--spec", "fib", "--kind", "terms", "--id", "A000045",
         "--bfile", FIXTURES],
    ]
    return argvs


def _other_argvs() -> list[list[str]]:
    """Outputs past 4300 digits, arguments past 640, errors, help and usage errors."""
    return [
        *(["gapprod", "--spec", "geom:2", "--count", "12", "--format", fmt] for fmt in FORMATS),
        # Gaps of up to 255 integers of 700 digits each: products as wide as
        # their one-element leaves, which are wider than to_decimal's pieces.
        *(["gapprod", "--spec", "geom:2,1" + "0" * 700, "--count", "9", "--format", fmt]
          for fmt in FORMATS),
        ["terms", "--spec", "fib", "--from", "100000", "--count", "50", "--format", "json"],
        ["terms", "--spec", "geom:7,-1", "--from", "6000", "--count", "3", "--format", "csv"],
        ["gapsum", "--spec", "pell", "--count", "40", "--signed", "--format", "json"],
        ["terms", "--spec", "poly:" + "0," * 40 + "7" * 600, "--count", "300", "--format", "csv"],
        ["gaps", "--spec", "geom:1" + "0" * 600, "--count", "9", "--format", "csv"],
        ["gaps", "--spec", "horadam:0,-1,1" + "0" * 600 + ",0", "--count", "9", "--format", "json"],
        ["terms", "--spec", "linear:1," + TOO_LONG, "--count", "3"],
        ["terms", "--spec", "linear:" + "1," * 30 + "1", "--count", "3"],  # quoted in part
        ["gapsum", "--spec", "explicit:" + TOO_LONG + ",1,5", "--count", "2", "--format", "json"],
        ["terms", "--spec", "explicit:5,3,9", "--count", "4"],
        ["gapsum", "--spec", "explicit:5,3,9", "--count", "3"],
        # Indices past any table: too large to compute, not a traceback.
        *(["terms", "--spec", spec, "--from", str(10**20), "--count", "1"]
          for spec in ("primes", "fold")),
        # Exponents: one past the digit limit is refused before 10**exponent is built.
        *(["terms", "--spec", "poly:" + c, "--count", "2"]
          for c in ("1e999999999", "1e-999999999", "1e400", "0,0.5,0.5")),
        *(["expand", f"--num={num}", f"--den={den}", "--count", "2"]
          for num, den in (("1e999999999", "1"), ("1e-999999999", "1"), ("1", "1e999999999"),
                           ("1", "1e-999999999"), ("1e400", "1"), ("0.5", "1,-0.5"))),
        # argparse: help and usage errors
        [],
        ["--help"],
        ["frobnicate"],
        *([name, "--help"] for name in ("terms", "gaps", "gapsum", "gapprod", "gf", "expand",
                                        "fc", "raney", "check-identity", "table", "check-oeis")),
        ["terms", "--spec", "fib"],
        ["gapprod", "--count", "3"],
        ["terms", "--spec", "fib", "--count", "x"],
        ["terms", "--spec", "fib", "--count", "-1"],
        ["gapsum", "--spec", "fib", "--count", "3", "--signed", "--abs"],
        ["gf", "--horadam", "1,1,1,1", "--plain", "--gapsum"],
        ["gf", "--horadam", "1,1,1"],
        ["fc", "--p", "1", "--m", "2", "--format", "csv"],
        ["table", "fc", "--format", "csv"],
        ["table", "nonesuch"],
        ["check-oeis", "--spec", "fib", "--kind", "terms", "--id", "A45",
         "--bfile", f"{FIXTURES}/b109454.txt"],
        ["check-oeis", "--spec", "fib", "--kind", "terms", "--id", "A109454",
         "--bfile", f"{FIXTURES}/b109454.txt", "--format", "csv"],
        ["check-identity"],
        ["terms", "--spec", "fib", "--count", "3", "extra"],
        # Long command-line text, quoted to its first 40 characters in every message.
        ["terms", "--spec", "fib", "--count", WORD],
        ["terms", "--spec", f"linear:{WORD},1", "--count", "3"],
        ["check-oeis", "--spec", "fib", "--kind", "terms", "--id", "A" + WORD, "--fetch"],
        ["terms", "--spec", "fib", "--count", "-" + "9" * 3000],
        # A long spec family, and range errors of long numbers.
        ["terms", "--spec", WORD, "--count", "3"],
        ["terms", "--spec", "linear:-" + "9" * 3000 + ",1", "--count", "2"],
        ["check-identity", "--fc=-" + "9" * 3000 + ",2"],
    ]


def _run_shape_argvs() -> list[list[str]]:
    """A constant linear run from an offset, a linear run with negative r,
    and runs of no value and of one value of every indexed command for each
    family with a formula or a recurrence, in every format; the text runs
    that _spec_argvs already holds are left out."""
    argvs = []
    for fmt in FORMATS:
        if fmt != "text":
            argvs.append(["terms", "--spec", "linear:0,-5", "--count", "4", "--from", "6",
                          "--format", fmt])
        argvs.append(["terms", "--spec", "linear:4,-9", "--count", "4", "--from", "6",
                      "--format", fmt])
        argvs += [[command, "--spec", "linear:4,-9", "--count", "6", "--format", fmt, *kind]
                  for command, kind in (("gaps", []), ("gapsum", []), ("gapsum", ["--signed"]),
                                        ("gapsum", ["--abs"]), ("gapprod", []))]
        for spec in ("linear:4,-9", "geom:3,-1", "poly:0,1/2,1/2", "binom:2,3",
                     "horadam:2,-1,-3,5", "explicit:5,3,9,2,12,0,-4,7,7,20,1,15,30"):
            for count in ("0", "1"):
                for command in ("terms", "gapsum", "gapprod", "gaps"):
                    held = command == "terms" or (command, count) == ("gapsum", "0")
                    if not (fmt == "text" and spec in SPECS and held):
                        argvs.append([command, "--spec", spec, "--count", count, "--format", fmt])
    return argvs


ARGVS = (_spec_argvs() + _gf_argvs() + _scalar_argvs() + _check_oeis_argvs() + _other_argvs()
         + _run_shape_argvs())


def _limits(argv: list[str]) -> tuple[int, ...]:
    if not hasattr(sys, "set_int_max_str_digits"):
        return (0,)  # no digit limit before Python 3.11 (and 3.10.7)
    longest = max((len(m) for m in re.findall(r"[0-9]+", " ".join(argv))), default=0)
    return tuple(limit for limit in LIMITS if limit == 0 or longest <= limit)


@contextlib.contextmanager
def _environment():
    """The repository root as working directory and COLUMNS=100, restored after."""
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(ROOT)
    os.environ["COLUMNS"] = "100"
    try:
        yield
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


@contextlib.contextmanager
def _digit_limit(limit: int):
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is None:
        yield
        return
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _uses_argparse(argv: list[str]) -> bool:
    """Whether argparse itself answers argv, with help or a usage error."""
    from gapseq.cli import build_parser

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            return True
    return False


def _outcome(argv: list[str], argparse_only: bool) -> dict:
    from gapseq.cli import run

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    if argparse_only:
        return {"exit": code}
    stdout = out.getvalue().encode()
    return {"exit": code, "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
            "stdout_len": len(stdout),
            "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def record() -> list[dict]:
    """Run every argv of ARGVS under each of its limits; the outcomes must agree."""
    entries = []
    with _environment():
        for argv in ARGVS:
            argparse_only = _uses_argparse(argv)
            outcomes = []
            for limit in _limits(argv):
                with _digit_limit(limit):
                    outcomes.append(_outcome(argv, argparse_only))
            if any(o != outcomes[0] for o in outcomes):
                raise SystemExit(f"outcome depends on the digit limit: {argv!r}")
            entries.append({"argv": argv, **({"argparse": True} if argparse_only else {}),
                            **outcomes[0]})
    return entries


def check(entries: list[dict]) -> list[str]:
    """A line for each entry and limit whose outcome differs from the corpus."""
    failures = []
    recorded = [e["argv"] for e in entries]
    if recorded != ARGVS:
        failures.append("the corpus does not hold ARGVS: record it again")
    with _environment():
        for entry in entries:
            want = {k: v for k, v in entry.items() if k not in ("argv", "argparse")}
            for limit in _limits(entry["argv"]):
                with _digit_limit(limit):
                    got = _outcome(entry["argv"], entry.get("argparse", False))
                if got != want:
                    failures.append(f"limit {limit}: {entry['argv']!r}: {got} != {want}")
    return failures


def load() -> list[dict]:
    return json.loads(CORPUS.read_text())["entries"]


def main(args: list[str]) -> int:
    if args == ["--record"]:
        entries = record()
        about = "outcomes of gapseq.cli.run, written by tests/cli_corpus.py --record"
        # One entry a line, so that a re-recording diffs entry by entry.
        CORPUS.write_text(f'{{"about": "{about}", "entries": [\n'
                          + ",\n".join(map(json.dumps, entries)) + "\n]}\n")
        print(f"recorded {len(entries)} entries in {CORPUS.name}")
        return 0
    if args:
        print(__doc__, file=sys.stderr)
        return 2
    entries = load()
    # A warning, such as a DeprecationWarning on a newer Python, fails the check.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        failures = check(entries)
    for line in failures:
        print(line[:500], file=sys.stderr)
    runs = sum(len(_limits(e["argv"])) for e in entries)
    print(f"{len(entries)} entries, {runs} runs, {len(failures)} failures "
          f"(Python {sys.version.split()[0]})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
