"""Self-test of the oracles: known prefixes, and planted wrong values caught.

    python3 bench/selftest.py

Every benchmark run calls ``run()`` before it measures and refuses to
run if any case fails. Each case feeds a check the right answer (which
must pass) and the same answer with one value planted wrong (which must
be rejected).
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from math import comb, factorial, prod

import oracles as o

# Published prefixes: A000045, A000129, A001045, A000040, A014707, A088748.
KNOWN = {
    "fib": ([0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89], lambda n: o.horadam_terms(0, 1, 1, 1, 0, n)),
    "pell": ([0, 1, 2, 5, 12, 29, 70, 169, 408, 985], lambda n: o.horadam_terms(0, 1, 2, 1, 0, n)),
    "jacobsthal": ([0, 1, 1, 3, 5, 11, 21, 43, 85, 171], lambda n: o.horadam_terms(0, 1, 1, 2, 0, n)),
    "primes": ([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47], o.primes),
    "fold bits": ([0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1, 1, 0],
                  lambda n: [o.fold_bit(i) for i in range(n)]),
    "fold walk": ([1, 2, 3, 2, 3, 4, 3, 2, 3, 4, 5, 4, 3, 4, 3, 2], o.fold_walk),
}


def _plant(values: list) -> list:
    wrong = list(values)
    wrong[len(wrong) // 2] += 1
    return wrong


def _cases():
    """(name, check(values) -> error or None, right values)."""
    for name, (prefix, make) in KNOWN.items():
        yield f"{name} prefix", lambda v, make=make: None if make(len(v)) == v else "differs", prefix
    h = o.horadam_terms(2, 5, 1, 2, 7, 40)
    yield ("horadam recurrence vs matrix power",
           lambda v: None if all(o.horadam_term(2, 5, 1, 2, 7 + i) == x for i, x in enumerate(v))
           else "differs", h)
    seq = [5, 3, 9, 9, 10, 200, 150, 151, 400]  # gaps short and long, up and down
    pairs = list(zip(seq, seq[1:]))
    element_sums = {
        "clamped": [sum(range(a + 1, b)) for a, b in pairs],
        "signed": [sum(range(a + 1, b)) if b > a else -sum(range(b, a + 1)) for a, b in pairs],
        "abs": [sum(a + j for j in range(1, abs(b - a - 1) + 1)) for a, b in pairs],
    }
    for kind, want in element_sums.items():
        yield (f"gap sums ({kind}) vs element sums",
               lambda v, kind=kind: None if o.gap_sums(seq, kind) == v else "differs", want)
    yield ("products vs math.prod",
           lambda v: None if [o.product(10, 10 + n) for n in range(0, 200, 13)] == v else "differs",
           [prod(range(10, 10 + n)) for n in range(0, 200, 13)])
    yield ("fuss-catalan, raney, binom vs math.comb",
           lambda v: None if [o.fuss_catalan(2, 50), o.raney(3, 2, 40), comb(90, 41)] == v
           else "differs",
           [comb(150, 50) // 101, Fraction(2, 122) * comb(122, 40), comb(90, 41)])
    lhs, rhs = o.fc_identity(7, 3)
    yield ("fc identity sides", lambda v: None if v[0] == v[1] else "differs", [lhs, rhs])
    lhs, rhs = o.raney_identity(6, 3, 2)
    yield ("raney identity sides", lambda v: None if v[0] == v[1] else "differs", [lhs, rhs])
    h = o.horadam_terms(1, 2, 2, 2, 0, 31)
    sums = o.gap_sums(h, "signed")
    text = "(12x + 3x^2 - 6x^3) / (1 - 8x - 2x^2 + 44x^3 + 8x^4 - 16x^5)"
    yield ("gf text generates termwise gap sums",
           lambda v: o.check_gf("text", v, f"{text}\n{' '.join(map(str, sums))}\n"), sums)
    yield ("gf expansion equals termwise gap sums",
           lambda v: o.check_gf("text", sums, f"{text}\n{' '.join(map(str, v))}\n"), sums)
    yield ("expand recurrence", lambda v: None if o.linear_series([0, 3], [1, -6, 8], 5) == v
           else "differs", [0, 3, 18, 84, 360])
    yield ("indexed json", lambda v: o.check_indexed("json", sums, json.dumps(
        {"values": v, "start": 0})), sums)
    yield ("indexed csv", lambda v: o.check_indexed("csv", sums, o.render_indexed("csv", v)), sums)
    terms = o.primes(50)
    yield ("gap rows", lambda v: o.check_gaps_csv(terms, "n,start,length\n" + "".join(
        f"{n},{v[n] + 1},{max(v[n + 1] - v[n] - 1, 0)}\n" for n in range(49))), terms)
    fc_lhs = o.product(2 * 3 + 2, 2 * 3 + 3)
    yield ("check-identity output", lambda v: o.check_identity_output(
        "text", f"P_3(kn+1, k=2) = {v[0]} vs k! * fc(3,2) = {v[1]}: holds\n",
        fc_lhs, factorial(2) * o.fuss_catalan(3, 2)), [fc_lhs, factorial(2) * o.fuss_catalan(3, 2)])
    def fc_doc(row3):
        title = "gap products of kn+1"
        rows = [[str(k)] + o.table_cells("fc", title, k, "", 6) for k in range(6)]
        rows[3] = ["3n+1"] + [str(c) for c in row3]
        return json.dumps([{"title": title, "headers": ["a_n"] * 7, "rows": rows}])

    yield ("table cells vs the published 3n+1 row", lambda v: o.check_table("fc", fc_doc(v)),
           [6, 30, 72, 132, 210, 306])
    big = o.product(2**12 + 1, 2**13)
    yield ("result digests", lambda v: None if [o.digest(x) for x in v] == [
        o.digest(big), o.digest(Fraction(big, 7)), o.digest(True)] else "differs",
        [big, Fraction(big, 7), True])
    # check-oeis: a planted shift or mismatch index must match exactly.
    want = {"matched": True, "shift": 2, "compared": 98}
    yield ("check-oeis shift", lambda v: o.check_check_oeis(
        "text", 0, f"A000040: matched shift={v[0]} compared={v[1]}\n", want), [2, 98])
    want = {"matched": False, "shift": 0, "index": 40, "expected": 180, "got": 179}
    yield ("check-oeis mismatch", lambda v: o.check_check_oeis(
        "text", 1, f"A000040: MISMATCH at index {v[0]}: b-file has {v[1]}, computed {v[2]} "
        "(best shift 0)\n", want), [40, 180, 179])


def run() -> list[str]:
    """Names of the cases that failed; empty when every oracle behaves."""
    failures = []
    for name, check, right in _cases():
        if check(right) is not None:
            failures.append(f"{name}: rejects the right values")
        if check(_plant(right)) is None:
            failures.append(f"{name}: accepts a planted wrong value")
    return failures


if __name__ == "__main__":
    cases = list(_cases())
    failures = run()
    for name, _, _ in cases:
        print(f"{'FAIL' if any(f.startswith(name + ':') for f in failures) else 'ok  '} {name}")
    for f in failures:
        print("FAIL", f)
    sys.exit(1 if failures else 0)
