"""Command-line front end.

Subcommands cover sequence terms, gaps, gap sums and products, Horadam
generating functions, raw rational-function expansion, Fuss-Catalan and
Raney numbers, identity checks, reference-table reproduction, and OEIS
b-file cross-checks. Exit codes: 0 success or match, 1 mismatch or
failed check, 2 usage error.

``_COMMANDS`` is the one place a subcommand is declared: its help, its
handler and the functions that add its arguments. A run builds only the
parser of the subcommand it names; help and unknown commands build all.

``terms``, ``gapsum``, ``gf --expand`` and ``expand`` print values from
exact Decimal runs (``decimal_terms``, ``decimal_gap_sequence``,
``decimal_expansion``): their values grow exponentially, and ``str`` of
a Decimal is linear where an int's is quadratic. Indexed output goes out
in writes of about 64 KiB, so no output is held whole. Through ``_text``
and ``_json``, output is exact under any int/str digit limit, which
gapseq never changes; command-line numbers stay within it.
"""

from __future__ import annotations

import argparse
import json
# argparse imports these on its first use, in run(): shutil when build_parser
# makes a help formatter, and locale (through gettext) for its first message.
import locale  # noqa: F401
import os
import shutil  # noqa: F401
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, Union

from . import oeis, tables
from ._decimal import int_to_str
from ._record import as_dict
from .combinatorics import fc_identity_sides, fuss_catalan, raney, raney_identity_sides
from .gaps import (
    decimal_gap_sequence,
    gap_product_between,
    gap_sequence,
    gap_span_between,
    gap_sum_abs_between,
    gap_sum_between,
    gap_sum_signed_between,
)
from .genfun import (
    Poly,
    RatFunc,
    decimal_expansion,
    horadam_gap_sum_gf,
    horadam_gf,
    horadam_shift_gf,
    horadam_shift_square_gf,
    horadam_square_gf,
    integer_coefficients,
    ratfunc_to_text,
)
from .sequences import (
    FIBONACCI,
    JACOBSTHAL,
    PELL,
    Binomial,
    Explicit,
    Fold,
    Geometric,
    Horadam,
    Linear,
    Polynomial,
    Primes,
    SeqSpec,
    SpecError,
    decimal_terms,
    terms,
)


class SpecParseError(ValueError):
    """A sequence-spec string failed to parse; carries the failure position."""

    def __init__(self, message: str, text: str, pos: int) -> None:
        super().__init__(f"{message} (at position {pos} in {text!r})")
        self.text = text
        self.pos = pos


_ALIASES: dict[str, SeqSpec] = {
    "fib": FIBONACCI,
    "jacobsthal": JACOBSTHAL,
    "pell": PELL,
    "primes": Primes(),
    "fold": Fold(),
}

_GRAMMAR = (
    "linear:K,R | geom:K[,OFFSET] | poly:C0,C1,... | binom:SHIFT,LOWER | "
    "horadam:A,B,R,S[,SHIFT] | primes | fold | explicit:T0,T1,... | "
    "fib | jacobsthal | pell"
)


def parse_spec(text: str) -> SeqSpec:
    """Parse a sequence spec string; see _GRAMMAR for the accepted forms."""
    bare = text.strip()
    if bare in _ALIASES:
        return _ALIASES[bare]
    name, sep, rest = bare.partition(":")
    if not sep or name not in _FAMILIES:
        raise SpecParseError(f"unknown sequence family {name!r}", text, 0)
    family, arities, convert = _FAMILIES[name]
    base = text.index(":") + 1
    if name == "poly" and not rest:
        raise SpecParseError("poly needs at least one coefficient", text, base)
    values, pos = [], base
    for token in rest.split(","):  # pos: where token starts in text
        try:
            values.append(convert(token.strip()))
        except (ValueError, ZeroDivisionError):
            noun = "an integer" if convert is int else "a rational"
            raise SpecParseError(f"expected {noun}, got {token.strip()!r}", text, pos) from None
        pos += len(token) + 1
    if arities is not None and len(values) not in arities:
        wanted = " or ".join(str(w) for w in arities)
        raise SpecParseError(f"{name} takes {wanted} arguments, got {len(values)}", text, base)
    try:
        return family(*values) if arities is not None else family(values)
    except SpecError as exc:
        raise SpecParseError(str(exc), text, base) from exc


# family -> (class, argument counts, or None for one list of any length, argument type)
_FAMILIES: dict[str, tuple[Callable[..., SeqSpec], Optional[tuple[int, ...]], type]] = {
    "linear": (Linear, (2,), int),
    "geom": (Geometric, (1, 2), int),
    "binom": (Binomial, (2,), int),
    "horadam": (Horadam, (4, 5), int),
    "poly": (Polynomial, None, Fraction),
    "explicit": (Explicit, None, int),
}


# ---------------------------------------------------------------------------
# argparse types (failures surface as usage errors, exit code 2)


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _int_list(count: int) -> Callable[[str], tuple[int, ...]]:
    def parse(text: str) -> tuple[int, ...]:
        parts = text.split(",")
        if len(parts) != count:
            raise argparse.ArgumentTypeError(
                f"expected {count} comma-separated integers, got {text!r}"
            )
        try:
            return tuple(int(p) for p in parts)
        except ValueError:
            raise argparse.ArgumentTypeError(f"non-integer in {text!r}") from None

    return parse


def _coeff_list(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(p.strip()) for p in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad coefficient list {text!r}") from None


def _a_number(text: str) -> str:
    if not oeis.A_NUMBER.match(text):
        raise argparse.ArgumentTypeError(f"expected 'A' + 6 digits, got {text!r}")
    return text


# ---------------------------------------------------------------------------
# output helpers


# Text per write: big enough that writing costs little per value, small
# enough that no output is ever held whole.
_WRITE_CHARS = 1 << 16

Value = Union[int, Decimal, Fraction]


def _write_joined(rows: Iterable, sep: str, render: Callable = lambda b, t: map(t, b)) -> None:
    """Write sep.join(render(batch, t)) to stdout for batches of rows,
    each as many rows as the last batch's text says fit in _WRITE_CHARS,
    at most twice as many. render writes a value v as t(v), with t str,
    or _text when str refuses an int past the digit limit."""
    write = sys.stdout.write
    rows = iter(rows)
    batch, lead = 64, ""
    while chunk := list(islice(rows, batch)):
        try:
            text = sep.join(render(chunk, str))
        except ValueError:
            text = sep.join(render(chunk, _text))
        write(lead + text)
        batch, lead = max(1, min(2 * batch, batch * _WRITE_CHARS // len(text))), sep


def _text(v: Value) -> str:
    """str(v), exact at any size under any int/str digit limit."""
    if type(v) is Fraction and v.denominator != 1:
        return f"{int_to_str(v.numerator)}/{int_to_str(v.denominator)}"
    return str(v) if type(v) is Decimal else int_to_str(int(v))


def _json_number(v: Value, text: Callable[[Value], str] = _text) -> str:
    """v as json.dumps writes it, but a Fraction that is not whole is a
    string like "1/3". type(), not isinstance: the ABC check is slow."""
    return f'"{text(v)}"' if type(v) is Fraction and v.denominator != 1 else text(v)


def _json(obj: object) -> str:
    """json.dumps(obj) for dicts, lists, strings, bools, None and values,
    exact at any size; a Fraction that is not whole is a string."""
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(_json, obj)) + "]"
    if isinstance(obj, (int, Decimal, Fraction)) and not isinstance(obj, bool):
        return _json_number(obj)
    return json.dumps(obj)


def _write_json(head: dict, key: str, values: Sequence[Value], tail: str = "") -> None:
    """_json(head + {key: values}) + tail and a newline, written in chunks."""
    sys.stdout.write(_json({**head, key: []})[:-2])
    _write_joined(values, ", ", lambda b, t: [_json_number(v, t) for v in b])
    sys.stdout.write("]" + tail + "}\n")


def _emit_indexed(ns: argparse.Namespace, payload: dict, values: Sequence, n0: int = 0) -> None:
    if ns.format == "json":
        _write_json(payload, "values", values, f', "start": {n0}')
    elif ns.format == "csv":
        sys.stdout.write("n,value\n")
        _write_joined(enumerate(values, n0), "\n", lambda b, t: [f"{n},{t(v)}" for n, v in b])
        sys.stdout.write("\n" if values else "")
    else:
        _write_joined(values, " ")
        sys.stdout.write("\n")


def _emit_scalar(ns: argparse.Namespace, payload: dict, value: Value) -> None:
    print(_json({**payload, "value": value}) if ns.format == "json" else _text(value))


# ---------------------------------------------------------------------------
# subcommands: each returns its exit code, or None for 0


def _cmd_terms(ns: argparse.Namespace) -> None:
    spec = parse_spec(ns.spec)
    values = decimal_terms(spec, ns.start, ns.count)
    _emit_indexed(ns, {"command": "terms", "spec": ns.spec}, values, ns.start)


def _cmd_gaps(ns: argparse.Namespace) -> None:
    spec = parse_spec(ns.spec)
    write = sys.stdout.write
    spans = enumerate(gap_sequence(gap_span_between, spec, ns.count))
    if ns.format == "json":
        # The bytes of _json of the whole document, written row by row.
        write(_json({"command": "gaps", "spec": ns.spec})[:-1] + ', "gaps": [')
        for n, (start, length) in spans:
            write(f'{", " if n else ""}{{"n": {n}, "start": {_text(start)}, '
                  f'"length": {_text(length)}, "elements": [')
            _write_joined(range(start, start + length), ", ")
            write("]}")
        write("]}\n")
    elif ns.format == "csv":
        write("n,start,length\n")
        _write_joined(spans, "", lambda b, t: [f"{n},{t(s)},{t(k)}\n" for n, (s, k) in b])
    else:
        for n, (start, length) in spans:
            write(f"{n} {_text(start)} {_text(length)} " + ("" if length else "-"))
            _write_joined(range(start, start + length), ",")
            write("\n")


# gapsum kinds: the first is the default and has no flag.
_GAP_SUMS: dict[str, Callable[[int, int], int]] = {
    "clamped": gap_sum_between,
    "signed": gap_sum_signed_between,
    "abs": gap_sum_abs_between,
}


def _cmd_gapsum(ns: argparse.Namespace) -> None:
    spec = parse_spec(ns.spec)
    values = decimal_gap_sequence(_GAP_SUMS[ns.kind], spec, ns.count)
    _emit_indexed(ns, {"command": "gapsum", "spec": ns.spec, "kind": ns.kind}, values)


def _cmd_gapprod(ns: argparse.Namespace) -> None:
    spec = parse_spec(ns.spec)
    values = gap_sequence(gap_product_between, spec, ns.count)
    _emit_indexed(ns, {"command": "gapprod", "spec": ns.spec}, values)


_GF_BUILDERS: dict[str, Callable[[Horadam], RatFunc]] = {
    "plain": horadam_gf,
    "shift": horadam_shift_gf,
    "square": horadam_square_gf,
    "square-shift": horadam_shift_square_gf,
    "gapsum": horadam_gap_sum_gf,
}


def _cmd_gf(ns: argparse.Namespace) -> None:
    spec = Horadam(*ns.horadam)
    f = _GF_BUILDERS[ns.kind](spec)
    expansion = decimal_expansion(f, ns.expand) if ns.expand is not None else None
    if ns.format == "json":
        num, den = integer_coefficients(f)
        payload = {"command": "gf", "horadam": list(ns.horadam), "kind": ns.kind,
                   "text": ratfunc_to_text(f), "num": num, "den": den}
        if expansion is None:
            print(_json(payload))
        else:
            _write_json(payload, "expansion", expansion)
    elif ns.format == "csv" and expansion is None:
        raise ValueError("csv output for gf needs --expand")
    else:
        if ns.format == "text":
            print(ratfunc_to_text(f))
        if expansion is not None:
            _emit_indexed(ns, {}, expansion)


def _cmd_expand(ns: argparse.Namespace) -> None:
    f = RatFunc(Poly(ns.num), Poly(ns.den))
    values = decimal_expansion(f, ns.count)
    _emit_indexed(ns, {"command": "expand", "text": ratfunc_to_text(f)}, values)


def _cmd_fc(ns: argparse.Namespace) -> None:
    _emit_scalar(ns, {"command": "fc", "p": ns.p, "m": ns.m}, fuss_catalan(ns.p, ns.m))


def _cmd_raney(ns: argparse.Namespace) -> None:
    value = raney(ns.p, ns.r, ns.n)
    _emit_scalar(ns, {"command": "raney", "p": ns.p, "r": ns.r, "n": ns.n}, value)


def _cmd_check_identity(ns: argparse.Namespace) -> int:
    if ns.fc is not None:
        k, n = ns.fc
        lhs, rhs = fc_identity_sides(k, n)
        detail = f"P_{n}(kn+1, k={k}) = {_text(lhs)} vs k! * fc({n},{k}) = {_text(rhs)}"
        payload = {"command": "check-identity", "identity": "fc", "k": k, "n": n}
    else:
        k, r, n = ns.raney
        lhs, rhs = raney_identity_sides(k, r, n)
        detail = (f"P_{n}(kn+r, k={k}, r={r}) = {_text(lhs)} vs "
                  f"(k!/r) * raney({n + 1},{r},{k}) = {_text(rhs)}")
        payload = {"command": "check-identity", "identity": "raney", "k": k, "r": r, "n": n}
    ok = lhs == rhs
    if ns.format == "json":
        print(json.dumps(dict(payload, holds=ok, detail=detail)))
    else:
        print(f"{detail}: {'holds' if ok else 'FAILS'}")
    return 0 if ok else 1


_TABLE_BUILDERS: dict[str, Callable[[], list[tables.RefTable]]] = {
    "figurate": lambda: [tables.figurate_table()],
    "fc": tables.fc_tables,
    "raney": tables.raney_tables,
    "horadam": lambda: [tables.horadam_table()],
}


def _cmd_table(ns: argparse.Namespace) -> None:
    built = _TABLE_BUILDERS[ns.name]()
    if ns.format == "json":
        print(json.dumps([as_dict(t) for t in built]))
    else:
        print("\n".join(tables.render_table(t) for t in built), end="")


# check-oeis kinds: the statistic of each consecutive pair, or None for the terms.
_KIND_FUNCS: dict[str, Optional[Callable[[int, int], int]]] = {
    "terms": None,
    "gapsum": gap_sum_between,
    "gapprod": gap_product_between,
}


def _cmd_check_oeis(ns: argparse.Namespace) -> int:
    spec = parse_spec(ns.spec)
    if ns.bfile is not None:
        bfile = oeis.parse_bfile(Path(ns.bfile).read_bytes(), ns.id)
    else:
        bfile = oeis.fetch_bfile(ns.id)
    count = ns.count if ns.count is not None else len(bfile.entries) + ns.max_shift
    func = _KIND_FUNCS[ns.kind]
    if isinstance(spec, Explicit):
        count = min(count, len(spec.terms) - (func is not None))
    values = terms(spec, 0, count) if func is None else gap_sequence(func, spec, count)
    report = oeis.cross_check(values, bfile, ns.max_shift)
    if ns.format == "json":
        # seq_id repeats ns.id; first_mismatch is the only field that can be None.
        fields = {k: v for k, v in as_dict(report).items()
                  if k != "seq_id" and v is not None}
        print(_json({"command": "check-oeis", "id": ns.id, "spec": ns.spec,
                     "kind": ns.kind, **fields}))
    elif report.matched:
        print(f"{ns.id}: matched shift={report.shift} compared={report.compared}")
    else:
        mm = report.first_mismatch
        print(f"{ns.id}: MISMATCH at index {mm.index}: b-file has {_text(mm.expected)}, "
              f"computed {_text(mm.got)} (best shift {report.shift})")
    return 0 if report.matched else 1


# ---------------------------------------------------------------------------
# parser assembly

Adder = Callable[[argparse.ArgumentParser], object]  # adds arguments to a parser


def _argument(*flags: str, **kw: object) -> Adder:
    """A function calling ``p.add_argument(*flags, **kw)`` on the parser p it is given."""
    return lambda p: p.add_argument(*flags, **kw)


def _one_of(*args: Adder, required: bool = False) -> Adder:
    """A function adding args to the parser it is given as one mutually exclusive group."""
    def add(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group(required=required)
        for add_arg in args:
            add_arg(group)
    return add


def _kind_flags(kinds: Iterable[str], default: str) -> tuple[Adder, Adder]:
    """Mutually exclusive ``--KIND`` flags, each storing its kind in ns.kind (else default)."""
    flags = [_argument(f"--{k}", dest="kind", action="store_const", const=k) for k in kinds]
    return _one_of(*flags), lambda p: p.set_defaults(kind=default)


_FORMAT = _argument("--format", choices=("text", "json"), default="text")
# csv is offered only where the output is a table of rows.
_FORMAT_CSV = _argument("--format", choices=("text", "json", "csv"), default="text")
_SPEC = _argument("--spec", required=True)
_COUNT = _argument("--count", type=_nonneg, required=True)
# argparse reads a value that starts with '-' as an option.
_LIST_HELP = "a list that starts with '-' must be joined with '=', as in --%(dest)s=-1,..."

# name -> (help, handler, then the functions adding its arguments in order)
_COMMANDS: dict[str, tuple] = {
    "terms": ("sequence terms", _cmd_terms, _FORMAT_CSV, _SPEC, _COUNT,
              _argument("--from", dest="start", type=_nonneg, default=0)),
    "gaps": ("gap start/length/elements", _cmd_gaps, _FORMAT_CSV, _SPEC, _COUNT),
    "gapsum": ("gap-sum sequence", _cmd_gapsum, _FORMAT_CSV, _SPEC, _COUNT,
               *_kind_flags(list(_GAP_SUMS)[1:], "clamped")),
    "gapprod": ("gap-product sequence", _cmd_gapprod, _FORMAT_CSV, _SPEC, _COUNT),
    "gf": ("Horadam generating functions", _cmd_gf, _FORMAT_CSV,
           _argument("--horadam", type=_int_list(4), required=True, metavar="A,B,R,S",
                     help=_LIST_HELP),
           *_kind_flags(_GF_BUILDERS, "plain"),
           _argument("--expand", type=_nonneg, default=None, metavar="N")),
    "expand": ("expand num/den coefficient lists", _cmd_expand, _FORMAT_CSV,
               _argument("--num", type=_coeff_list, required=True, metavar="C0,C1,...",
                         help=_LIST_HELP),
               _argument("--den", type=_coeff_list, required=True, metavar="C0,C1,...",
                         help=_LIST_HELP),
               _COUNT),
    "fc": ("Fuss-Catalan number", _cmd_fc, _FORMAT,
           _argument("--p", type=_nonneg, required=True),
           _argument("--m", type=_nonneg, required=True)),
    "raney": ("Raney number", _cmd_raney, _FORMAT,
              _argument("--p", type=_nonneg, required=True),
              _argument("--r", type=_positive, required=True),
              _argument("--n", type=_nonneg, required=True)),
    "check-identity": ("verify product identities", _cmd_check_identity, _FORMAT,
                       _one_of(_argument("--fc", type=_int_list(2), metavar="K,N",
                                         help=_LIST_HELP),
                               _argument("--raney", type=_int_list(3), metavar="K,R,N",
                                         help=_LIST_HELP),
                               required=True)),
    "table": ("reproduce a reference table", _cmd_table, _FORMAT,
              _argument("name", choices=sorted(_TABLE_BUILDERS))),
    "check-oeis": ("cross-check against a b-file", _cmd_check_oeis, _FORMAT, _SPEC,
                   _argument("--kind", choices=sorted(_KIND_FUNCS), required=True),
                   _argument("--id", type=_a_number, required=True),
                   _one_of(_argument("--bfile", metavar="PATH"),
                           _argument("--fetch", action="store_true"), required=True),
                   _argument("--max-shift", type=_nonneg, default=4),
                   _argument("--count", type=_nonneg, default=None)),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone. The top level takes
    only -h, so an argv that starts with ``command`` parses alike in both."""
    parser = argparse.ArgumentParser(
        prog="gapseq",
        description="Exact gap-sum and gap-product sequence toolkit.",
        epilog=f"sequence spec grammar: {_GRAMMAR}",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in _COMMANDS if command is None else [command]:
        help_, _, *adders = _COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        for add in adders:
            add(p)
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv, execute one subcommand, and return the exit code."""
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after help and 2 on a usage error
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = _COMMANDS[ns.command][1](ns) or 0
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout: send the rest to devnull, as Python's signal docs advise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (oeis.FetchError, oeis.BFileError, OSError) as exc:
        print(f"gapseq: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, IndexError) as exc:
        print(f"gapseq: error: {exc}", file=sys.stderr)
        if isinstance(exc, (SpecParseError, SpecError)):
            print(f"gapseq: spec grammar: {_GRAMMAR}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
