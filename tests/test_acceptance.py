"""Acceptance suite: one test per exit criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion; any assertion failure fails that criterion's test.
"""

import re
from fractions import Fraction
from math import prod

from gapseq.combinatorics import (
    check_fc_identity,
    check_raney_identity,
    fuss_catalan,
    gap_product_closed,
)
from gapseq.folding import a088748, descent_marker, fold, fold_identity_check
from gapseq.gaps import (
    gap,
    gap_product,
    gap_sum,
    gap_sum_abs,
    gap_sum_geometric_closed,
    gap_sum_linear_closed,
    gap_sum_signed,
)
from gapseq.genfun import Poly, RatFunc, horadam_gf, ratfunc
from gapseq.oeis import cross_check, parse_bfile
from gapseq.sequences import (
    FIBONACCI,
    Binomial,
    Fold,
    Geometric,
    Horadam,
    Linear,
    Polynomial,
    Primes,
    term,
)
from gapseq.tables import FIGURATE_ROWS, PUBLISHED_HORADAM_ROWS

from conftest import load_fixture

HALF = Fraction(1, 2)


def _report(number: int, text: str) -> None:
    print(f"criterion {number:2d}: PASS  {text}")


def test_criterion_01_prime_gap_sums():
    want = [0, 4, 6, 27, 12, 45, 18, 63, 130, 30, 170]
    assert [gap_sum(Primes(), n) for n in range(11)] == want
    _report(1, "prime gap-sums n=0..10")


def test_criterion_02_jacobsthal_shifted_sums_and_products():
    spec = Horadam(1, 3, 1, 2)  # J(n+2)
    assert [gap_sum(spec, n) for n in range(4)] == [2, 4, 40, 144]
    assert [gap_product(spec, n) for n in range(4)] == [2, 4, 30240, 60949324800]
    _report(2, "J(n+2) gap-sums and gap-products")


def test_criterion_03_fibonacci_gap_products():
    want = [1, 1, 1, 1, 4, 42, 11880, 390700800, 169958063987712000]
    assert [gap_product(FIBONACCI, n) for n in range(9)] == want
    _report(3, "Fibonacci gap-products incl. the 18-digit term")


def test_criterion_04_geometric_gap_sums_and_gfs():
    want_pow2 = [0, 3, 18, 84, 360, 1488, 6048, 24384]
    assert [gap_sum(Geometric(2), n) for n in range(8)] == want_pow2
    assert [gap_sum_geometric_closed(2, n) for n in range(8)] == want_pow2
    gf_pow2 = RatFunc(Poly((0, 3)), Poly((1, -2)) * Poly((1, -4)))
    assert gf_pow2.expand(20) == [gap_sum(Geometric(2), n) for n in range(20)]

    want_mersenne = [0, 2, 15, 77, 345, 1457, 5985]
    assert [gap_sum(Geometric(2, -1), n) for n in range(7)] == want_mersenne
    gf_mersenne = RatFunc(
        Poly((0, 2, 1)), Poly((1, -1)) * Poly((1, -2)) * Poly((1, -4))
    )
    assert gf_mersenne.expand(20) == [gap_sum(Geometric(2, -1), n) for n in range(20)]
    _report(4, "geometric k=2 and 2^n-1 gap-sums with their g.f.s")


def test_criterion_05_horadam_gapsum_gf_suite():
    for spec, label, published_gf, published_terms in PUBLISHED_HORADAM_ROWS:
        built = horadam_gf(spec, "gapsum")
        if published_gf is not None:
            assert built == published_gf, label
        expansion = built.expand(40)
        assert expansion == [gap_sum_signed(spec, n) for n in range(40)], label
        assert expansion[: len(published_terms)] == list(published_terms), label
    _report(5, "gap-sum g.f.s for F/J/Pell rows, (1,3,1,2) and (1,2,2,2)")


def test_criterion_06_squared_horadam_gf():
    built = horadam_gf(Horadam(1, 3, 1, 2), "square")
    assert built == ratfunc((1, 6, -8), (1, -3, -6, 8))
    assert built.expand(5) == [1, 9, 25, 121, 441]
    _report(6, "g_2(1,3,1,2) normalized form and squared expansion")


def _closed_form(text):
    """The printed closed form as a function of n: 3n(n+1)^2/2 -> 3*n*(n+1)**2/2."""
    expr = re.sub(r"(\d)(?=[n(])|([n)])(?=[n(\d])", r"\1\2*", text).replace("^", "**")
    return lambda n: eval(expr, {"n": Fraction(n)})


def test_criterion_07_figurate_table():
    for row in FIGURATE_ROWS:
        sums = [gap_sum(row.spec, n) for n in range(51)]
        brute = [sum(gap(row.spec, n).elements) for n in range(51)]
        assert sums == brute, row.label
        printed = _closed_form(row.sum_label)
        assert [printed(n) for n in range(51)] == sums, row.label
    pentagonal = next(r for r in FIGURATE_ROWS if r.label == "n(3n-1)/2")
    published = pentagonal.published_sum_formula
    assert published is not None
    assert published(1) == 6 and gap_sum(pentagonal.spec, 1) == 9
    _report(7, "figurate rows n<=50 incl. the pentagonal /3 -> /2 correction")


def test_criterion_08_fuss_catalan_raney():
    assert all(check_fc_identity(k, n) for k in range(1, 7) for n in range(9))
    assert all(
        check_raney_identity(k, r, n)
        for k in range(1, 6)
        for r in range(1, k + 2)
        for n in range(7)
    )
    # Published product rows for kn+1; the 4n+1 row omits its n=3 value, so
    # its later cells sit one column early.
    published_rows = {
        2: [2, 4, 6, 8, 10, 12],
        3: [6, 30, 72, 132, 210, 306],
        5: [120, 5040, 32760, 116280, 303600, 657720],
    }
    for k, row in published_rows.items():
        assert [gap_product_closed(k, 1, n) for n in range(6)] == row
    oracle_row4 = [gap_product_closed(4, 1, n) for n in range(7)]
    assert oracle_row4 == [24, 336, 1320, 3360, 6840, 12144, 19656]
    published_row4 = [24, 336, 1320, 6840, 12144, 19656]
    assert published_row4[:3] == oracle_row4[:3]
    assert published_row4[3:] == oracle_row4[4:]  # published cells shifted past n=3
    assert gap_product_closed(4, 1, 3) == 3360 != 6840

    fc_rows = {
        3: [1, 5, 12, 22, 35, 51],
        4: [1, 14, 55, 140, 285, 506],
        5: [1, 42, 273, 969, 2530, 5481],
    }
    for k, row in fc_rows.items():
        assert [fuss_catalan(n, k) for n in range(6)] == row
    _report(8, "FC/Raney identities, product tables, FC rows (3360 at 4n+1 n=3)")


def test_criterion_09_paper_folding():
    walk = [1, 2, 3, 2, 3, 4, 3, 2, 3, 4, 5, 4, 3, 4, 3, 2, 3, 4, 5, 4, 5, 6, 5]
    assert [a088748(n) for n in range(23)] == walk

    abs_sums = [0, 0, 9, 0, 0, 11, 9, 0, 0, 0, 13, 11, 0, 11, 9, 0, 0, 0, 13, 0, 0]
    markers = [0, 0, 5, 0, 0, 7, 5, 0, 0, 0, 9, 7, 0, 7, 5, 0, 0, 0, 9, 0, 0]
    diffs = [0, 0, 4, 0, 0, 4, 4, 0, 0, 0, 4, 4, 0, 4, 4, 0, 0, 0, 4, 0, 0]
    spec = Fold()
    assert [gap_sum_abs(spec, n) for n in range(21)] == abs_sums
    assert [descent_marker(spec, n) for n in range(21)] == markers
    assert [gap_sum_abs(spec, n) - descent_marker(spec, n) for n in range(21)] == diffs
    assert diffs == [4 * fold(n) for n in range(21)]

    assert all(fold_identity_check(n) for n in range(4096))
    _report(9, "A088748 listing, the three derived listings, 4*fold sweep n<4096")


def test_criterion_10_oracle_property_suite():
    battery = [
        Primes(),
        FIBONACCI,
        Horadam(1, 1, 1, 1),
        Horadam(1, 1, 1, 2),
        Horadam(1, 2, 2, 1),
        Horadam(1, 2, 2, 2),
        Horadam(1, 3, 1, 2),
        Geometric(2),
        Geometric(2, -1),
        Linear(1, 0),
        Linear(3, 1),
        Linear(4, 1),
        Linear(5, 2),
        Polynomial((0, 0, 1)),
        Polynomial((0, HALF, HALF)),
        Polynomial((0, 1, 1)),
        Polynomial((0, HALF, 3 * HALF)),
        Polynomial((0, -HALF, 3 * HALF)),
        Polynomial((0, 0, 2)),
        Binomial(2, 3),
        Binomial(3, 4),
        Fold(),
    ]
    for spec in battery:
        for n in range(201):
            g = gap(spec, n)
            a, b = term(spec, n), term(spec, n + 1)
            if b <= a + 1:
                assert gap_sum(spec, n) == 0, spec
                assert gap_product(spec, n) == 1, spec
            else:
                assert gap_sum_signed(spec, n) == gap_sum(spec, n), spec
            if g.length <= 10_000:
                assert gap_sum(spec, n) == sum(g.elements), spec
                assert gap_product(spec, n) == prod(g.elements, start=1), spec
    for r in range(1, 7):
        for n in range(51):
            assert gap_sum_linear_closed(r, n) == gap_sum(Linear(r, 0), n)
    for k in range(2, 6):
        for n in range(21):
            assert gap_sum_geometric_closed(k, n) == gap_sum(Geometric(k), n)
    _report(10, "closed forms vs enumeration, empty-gap conventions, n<=200")


def test_criterion_11_oeis_cross_checks():
    cases = [
        ("b054265.txt", "A054265", [gap_sum(Primes(), n) for n in range(11)]),
        ("b103897.txt", "A103897", [gap_sum(Geometric(2), n) for n in range(8)]),
        ("b109454.txt", "A109454", [gap_sum(FIBONACCI, n) for n in range(11)]),
        (
            "b006002.txt",
            "A006002",
            [gap_sum(Polynomial((0, HALF, HALF)), n) for n in range(11)],
        ),
    ]
    for name, seq_id, values in cases:
        bfile = parse_bfile(load_fixture(name), seq_id)
        report = cross_check(values, bfile, 4)
        assert report.matched, seq_id
        assert report.shift == 0, seq_id

    corrupted_text = load_fixture("b054265.txt").decode().replace("4 27", "4 28")
    corrupted = parse_bfile(corrupted_text, "A054265")
    report = cross_check([gap_sum(Primes(), n) for n in range(11)], corrupted, 4)
    assert not report.matched
    assert report.first_mismatch is not None
    assert report.first_mismatch.index == 4
    assert report.first_mismatch.expected == 28
    assert report.first_mismatch.got == 27
    _report(11, "b-file fixtures match at shift 0; corruption pinpointed")


def test_extra_general_geometric_gap_sum_gf():
    # ((k+1)(kx + k - 2) / 2) / ((1-kx)(1-k^2 x)) expands to the k^n gap-sums
    for k in range(2, 6):
        num = Poly((Fraction(k - 2, 1), Fraction(k, 1))).scale(Fraction(k + 1, 2))
        den = Poly((1, -k)) * Poly((1, -k * k))
        f = RatFunc(num, den)
        assert f.expand(20) == [gap_sum(Geometric(k), n) for n in range(20)]
