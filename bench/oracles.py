"""Computations made apart from gapseq, used to check every job's output.

Nothing here imports gapseq. Each oracle reaches its values by a route
other than the one gapseq takes: Horadam terms by a recurrence whose
start is fixed by a 2x2 matrix power, primes by a sieve sized up front,
the paper-folding bits by the odd part of n + 1, gap sums by summing the
gap's elements when the gap is short, and products, binomials,
Fuss-Catalan and Raney numbers through ``math.comb``, ``math.factorial``
and ``math.prod``.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from math import comb, factorial, isqrt, log, prod

# Gaps at most this long are summed or multiplied element by element.
BRUTE_FORCE_WIDTH = 64

# Outputs stay below 4300 decimal digits (see README): 14000 bits is
# about 4214 digits.
MAX_BITS = 14000


# ---------------------------------------------------------------------------
# sequence terms


def _mat_mul(x, y):
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def horadam_term(a: int, b: int, r: int, s: int, n: int) -> int:
    """h(n) for h(0) = a, h(1) = b, h(i) = r h(i-1) + s h(i-2), by the
    n-th power of [[r, s], [1, 0]] applied to (b, a)."""
    result = ((1, 0), (0, 1))
    base = ((r, s), (1, 0))
    while n:
        if n & 1:
            result = _mat_mul(result, base)
        base = _mat_mul(base, base)
        n >>= 1
    return result[1][0] * b + result[1][1] * a


def horadam_terms(a: int, b: int, r: int, s: int, n0: int, count: int) -> list[int]:
    """h(n0) .. h(n0 + count - 1): matrix power to the start, then the
    recurrence, with the last term checked by a second matrix power."""
    x, y = horadam_term(a, b, r, s, n0), horadam_term(a, b, r, s, n0 + 1)
    out = []
    for _ in range(count):
        out.append(x)
        x, y = y, r * y + s * x
    if count and out[-1] != horadam_term(a, b, r, s, n0 + count - 1):
        raise AssertionError("horadam oracle: recurrence and matrix power disagree")
    return out


def primes(count: int) -> list[int]:
    """The first ``count`` primes from one sieve whose bound comes from
    Rosser's bound p_n < n (ln n + ln ln n) for n >= 6."""
    n = max(count, 6)
    limit = int(n * (log(n) + log(log(n)))) + 10
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    out = [i for i, f in enumerate(flags) if f][:count]
    if len(out) != count:
        raise AssertionError("prime oracle: sieve bound too small")
    return out


def fold_bit(n: int) -> int:
    """A014707(n): 1 exactly when the odd part of n + 1 is 3 mod 4."""
    m = n + 1
    return 1 if (m // (m & -m)) % 4 == 3 else 0


def fold_walk(count: int) -> list[int]:
    """A088748: w(0) = 1, w(n+1) = w(n) + 1 - 2 A014707(n)."""
    out = [1]
    for n in range(count - 1):
        out.append(out[-1] + 1 - 2 * fold_bit(n))
    return out[:count]


def spec_terms(spec: tuple, n0: int, count: int) -> list[int]:
    """Terms of a spec given as ``(family, *params)``, the form the
    workloads use to describe the sequences they hand to gapseq."""
    family, *p = spec
    ns = range(n0, n0 + count)
    if family == "horadam":
        a, b, r, s, shift = p
        return horadam_terms(a, b, r, s, n0 + shift, count)
    if family == "linear":
        k, r = p
        return [k * n + r for n in ns]
    if family == "geom":
        k, offset = p
        power = k**n0
        out = []
        for _ in ns:
            out.append(power + offset)
            power *= k
        return out
    if family == "poly":
        # a + b n(n+1)/2 + c n^2
        a, b, c = p
        return [a + b * (n * (n + 1) // 2) + c * n * n for n in ns]
    if family == "binom":
        shift, lower = p
        return [comb(n + shift, lower) for n in ns]
    if family == "primes":
        return primes(n0 + count)[n0:]
    if family == "fold":
        return fold_walk(n0 + count)[n0:]
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# gaps


def gap_sum(a: int, b: int, kind: str = "clamped") -> int:
    """Sum of the gap between consecutive terms a and b: clamped (0 on an
    empty gap), signed (negative at a descent) or abs (a + 1 .. a + |b - a - 1|)."""
    width = b - a - 1
    if kind == "abs":
        lo, hi, sign = a + 1, a + abs(width) + 1, 1
    elif width >= 0:
        lo, hi, sign = a + 1, b, 1
    elif kind == "signed":
        lo, hi, sign = b, a + 1, -1
    else:
        return 0
    if hi - lo <= BRUTE_FORCE_WIDTH:
        return sign * sum(range(lo, hi))
    return sign * (hi - lo) * (lo + hi - 1) // 2


def product(lo: int, hi: int) -> int:
    """Product of the integers in [lo, hi), lo >= 1: ``math.prod`` for a
    short range, else (hi-1)! / (lo-1)! as C(hi-1, n) * n! with n = hi - lo."""
    n = hi - lo
    if n <= 0:
        return 1
    if n <= BRUTE_FORCE_WIDTH:
        return prod(range(lo, hi))
    return comb(hi - 1, n) * factorial(n)


def gap_product(a: int, b: int) -> int:
    return product(a + 1, b)


def gap_sums(values: list[int], kind: str = "clamped") -> list[int]:
    return [gap_sum(values[i], values[i + 1], kind) for i in range(len(values) - 1)]


# ---------------------------------------------------------------------------
# combinatorics


def binom(n: int, k: int) -> int:
    return comb(n, k)


def fuss_catalan(p: int, m: int) -> int:
    q, rem = divmod(comb((p + 1) * m, m), p * m + 1)
    if rem:
        raise AssertionError("fuss-catalan oracle: not an integer")
    return q


def raney(p: int, r: int, n: int) -> Fraction:
    return Fraction(r, p * n + r) * comb(p * n + r, n)


def fc_identity(k: int, n: int) -> tuple[int, int]:
    """Both sides of P_n(kn+1) = k! fc(n, k)."""
    return product(k * n + 2, k * n + k + 1), factorial(k) * fuss_catalan(n, k)


def raney_identity(k: int, r: int, n: int) -> tuple[Fraction, Fraction]:
    """Both sides of P_n(kn+r) = (k!/r) raney(n+1, r, k)."""
    lhs = Fraction(product(k * n + r + 1, k * n + r + k))
    return lhs, Fraction(factorial(k), r) * raney(n + 1, r, k)


def fc_identity_holds(k: int, n: int) -> bool:
    lhs, rhs = fc_identity(k, n)
    return lhs == rhs


def raney_identity_holds(k: int, r: int, n: int) -> bool:
    lhs, rhs = raney_identity(k, r, n)
    return lhs == rhs


def linear_series(num: list[int], den: list[int], count: int) -> list[Fraction]:
    """Power-series coefficients of num/den from num = den * series."""
    out: list[Fraction] = []
    for i in range(count):
        c = Fraction(num[i] if i < len(num) else 0)
        for j in range(1, min(i, len(den) - 1) + 1):
            c -= den[j] * out[i - j]
        out.append(c / den[0])
    return out


def series_matches(num: list[int], den: list[int], series: list) -> bool:
    """Whether den * series agrees with num up to len(series) terms."""
    n = len(series)
    for i in range(n):
        acc = sum(den[j] * series[i - j] for j in range(min(i, len(den) - 1) + 1))
        if acc != (num[i] if i < len(num) else 0):
            return False
    return len(num) <= n


_POLY_TERM = re.compile(r"([+-]?)(\d*)(x(?:\^(\d+))?)?")


def parse_poly(text: str) -> list[int]:
    """Coefficients, ascending, of a rendering like ``1 - 3x + x^2``."""
    coeffs: dict[int, int] = {}
    for part in re.findall(r"[+-]?[^+-]+", text.replace(" ", "")):
        m = _POLY_TERM.fullmatch(part)
        if not m or not (m.group(2) or m.group(3)):
            raise ValueError(f"bad polynomial term {part!r}")
        c = int(m.group(2) or 1) * (-1 if m.group(1) == "-" else 1)
        power = 0 if not m.group(3) else int(m.group(4) or 1)
        coeffs[power] = coeffs.get(power, 0) + c
    out = [0] * (max(coeffs) + 1)
    for power, c in coeffs.items():
        out[power] = c
    return out


def parse_ratfunc(text: str) -> tuple[list[int], list[int]]:
    m = re.fullmatch(r"\((.*)\) / \((.*)\)", text.strip())
    if not m:
        raise ValueError(f"not a '(num) / (den)' rendering: {text!r}")
    return parse_poly(m.group(1)), parse_poly(m.group(2))


def digest(value) -> str:
    """SHA-256 of an exact encoding of an int, Fraction or bool result."""
    def enc(n: int) -> bytes:
        return n.to_bytes(n.bit_length() // 8 + 1, "little", signed=True)

    if isinstance(value, bool):
        data = b"bool:" + bytes([value])
    elif isinstance(value, Fraction):
        data = b"fraction:" + enc(value.numerator) + b"/" + enc(value.denominator)
    elif isinstance(value, int):
        data = b"int:" + enc(value)
    else:
        raise TypeError(f"no digest for {type(value).__name__}")
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is right, else a reason


def render_indexed(fmt: str, values: list, n0: int = 0) -> str:
    """The documented text and csv forms of an indexed result."""
    if fmt == "csv":
        return "n,value\n" + "".join(f"{n0 + i},{v}\n" for i, v in enumerate(values))
    return " ".join(str(v) for v in values) + "\n"


def check_indexed(fmt: str, values: list, out: str, n0: int = 0):
    if fmt == "json":
        doc = json.loads(out)
        if doc.get("start") != n0 or doc.get("values") != values:
            return "json values differ from the oracle"
        return None
    if out != render_indexed(fmt, values, n0):
        return f"{fmt} output differs from the oracle"
    return None


def check_gaps_csv(values: list[int], out: str):
    want = "n,start,length\n" + "".join(
        f"{n},{values[n] + 1},{max(values[n + 1] - values[n] - 1, 0)}\n"
        for n in range(len(values) - 1)
    )
    return None if out == want else "gap rows differ from the oracle"


def check_gf(fmt: str, expected: list, out: str):
    """A gf job: the rational function must expand to the oracle's terms
    (den * series == num), and the printed expansion must equal them."""
    if fmt == "json":
        doc = json.loads(out)
        num, den, shown = doc["num"], doc["den"], doc["expansion"]
        if parse_ratfunc(doc["text"]) != (num, den):
            return "gf text and coefficient lists disagree"
    else:
        text, expansion = out.rstrip("\n").split("\n")
        num, den = parse_ratfunc(text)
        shown = [int(v) for v in expansion.split()]
    if shown != expected:
        return "gf expansion differs from the oracle"
    if not den or den[0] == 0 or not series_matches(num, den, expected):
        return "gf does not generate the oracle's terms"
    return None


def check_check_oeis(fmt: str, code: int, out: str, want: dict):
    """``want`` holds matched, shift and compared, and for a planted
    mismatch its b-file index, the planted value and the true value."""
    if fmt == "json":
        doc = json.loads(out)
        got = {k: doc.get(k) for k in ("matched", "shift", "compared")}
        mm = doc.get("first_mismatch")
        if mm:
            got.update(index=mm["index"], expected=mm["expected"], got=mm["got"])
    else:
        m = re.fullmatch(r"A\d{6}: matched shift=(-?\d+) compared=(\d+)\n", out)
        if m:
            got = {"matched": True, "shift": int(m[1]), "compared": int(m[2])}
        else:
            m = re.fullmatch(
                r"A\d{6}: MISMATCH at index (\d+): b-file has (-?\d+), "
                r"computed (-?\d+) \(best shift (-?\d+)\)\n",
                out,
            )
            if not m:
                return "unrecognised check-oeis output"
            got = {"matched": False, "shift": int(m[4]), "index": int(m[1]),
                   "expected": int(m[2]), "got": int(m[3])}
    if any(got.get(k) != v for k, v in want.items()):
        return f"check-oeis reported {got}, oracle says {want}"
    if code != (0 if want["matched"] else 1):
        return f"exit code {code} for matched={want['matched']}"
    return None


def check_identity_output(fmt: str, out: str, lhs, rhs):
    holds = lhs == rhs
    if fmt == "json":
        doc = json.loads(out)
        numbers = re.findall(r"= (-?\d+(?:/\d+)?)", doc["detail"])
        ok_flag = doc["holds"]
    else:
        numbers = re.findall(r"= (-?\d+(?:/\d+)?)", out)
        ok_flag = out.rstrip("\n").endswith(": holds")
    if [Fraction(v) for v in numbers] != [Fraction(lhs), Fraction(rhs)] or ok_flag != holds:
        return "identity sides or verdict differ from the oracle"
    return None


# Tables: every cell the CLI prints, recomputed here.

_FIGURATE = {
    "n^2": lambda n: n * n,
    "n(n+1)/2": lambda n: n * (n + 1) // 2,
    "n(n+1)": lambda n: n * (n + 1),
    "n(3n+1)/2": lambda n: n * (3 * n + 1) // 2,
    "C(n+2,3)": lambda n: comb(n + 2, 3),
    "C(n+3,4)": lambda n: comb(n + 3, 4),
    "n(3n-1)/2": lambda n: n * (3 * n - 1) // 2,
}

_HORADAM_ROWS = {
    "F(n+1)": (1, 1, 1, 1),
    "J(n+1)": (1, 1, 1, 2),
    "Pell(n+1)": (1, 2, 2, 1),
    "J(n+2)": (1, 3, 1, 2),
    "H(1,2,2,2)": (1, 2, 2, 2),
}


def table_cells(name: str, title: str, row: int, label: str, count: int) -> list[str]:
    """The recomputed cells of one table row, after its label columns.

    Rows of the fc and raney tables are k = 0 .. 5 in order, whatever
    their labels say (one published label is wrong, see README)."""
    if name == "figurate":
        f = _FIGURATE[label]
        return [" ".join(str(gap_sum(f(n), f(n + 1))) for n in range(count))]
    if name == "horadam":
        a, b, r, s = _HORADAM_ROWS[label]
        h = horadam_terms(a, b, r, s, 0, count + 1)
        return [" ".join(str(gap_sum(h[n], h[n + 1], "signed")) for n in range(count))]
    k = row
    if title.startswith("Fuss-Catalan"):
        cells = [fuss_catalan(n, k) for n in range(count)]
    elif title.startswith("Raney"):
        cells = [raney(n + 1, 2, k) for n in range(count)]
    else:  # gap products of kn+1 or kn+2
        r = 1 if name == "fc" else 2
        cells = [product(k * n + r + 1, k * n + r + k) for n in range(count)]
    return [str(c) for c in cells]


def check_table(name: str, out: str):
    doc = json.loads(out)
    if not doc:
        return "no tables"
    for table in doc:
        label_cols = 3 if name == "horadam" else 2 if name == "figurate" else 1
        count = 8 if name in ("figurate", "horadam") else len(table["headers"]) - 1
        for i, row in enumerate(table["rows"]):
            want = table_cells(name, table["title"], i, row[0], count)
            if row[label_cols:] != want:
                return f"table {name!r} row {row[0]!r} differs from the oracle"
            if name == "horadam":
                a, b, r, s = _HORADAM_ROWS[row[0]]
                terms = horadam_terms(a, b, r, s, 0, 30)
                sums = [gap_sum(terms[n], terms[n + 1], "signed") for n in range(29)]
                for text, series in ((row[1], terms[:29]), (row[2], sums)):
                    if not series_matches(*parse_ratfunc(text), series):
                        return f"table horadam row {row[0]!r}: g.f. does not generate it"
    return None
