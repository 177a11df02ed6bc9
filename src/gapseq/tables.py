"""Published reference tables, recomputed from scratch.

Four table families circulate for these sequences: the figurate-number
gap-sums with their closed forms, the gap-product and Fuss-Catalan arrays
for a_n = k*n + 1, the a_n = k*n + 2 product array with its Raney-number
companion, and the Horadam gap-sum generating functions. The builders
here recompute every cell with this package's own arithmetic and attach a
correction footnote wherever the published value disagrees; the
recomputed value is what the table shows.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable, Optional, Union

from ._record import record
from .combinatorics import as_integer, raney
from .gaps import gap_product_between, gap_sequence, gap_sum_between, gap_sum_signed_between
from .genfun import Poly, RatFunc, horadam_gap_sum_gf, horadam_gf, ratfunc_to_text
from .sequences import Binomial, Horadam, Linear, Polynomial, SeqSpec

HALF = Fraction(1, 2)
# Leading gap sums shown per row of the figurate and Horadam tables.
SHOWN_SUMS = 8


@record
class RefTable:
    """A rendered-ready table: title, column headers, string cells, footnotes.

    The field order is the key order of ``gapseq table --format json``.
    """

    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    corrections: tuple[str, ...]


@record
class FigurateRow:
    """One figurate family: spec, its printed gap-sum closed form, and the
    published closed form where that one is wrong."""

    label: str
    spec: SeqSpec
    sum_label: str
    published_sum_formula: Optional[Callable[[int], int]] = None


FIGURATE_ROWS: tuple[FigurateRow, ...] = (
    FigurateRow("n^2", Polynomial((0, 0, 1)), "2n^3 + 2n^2 + n"),
    FigurateRow("n(n+1)/2", Polynomial((0, HALF, HALF)), "n(n+1)^2/2"),
    FigurateRow("n(n+1)", Polynomial((0, 1, 1)), "(2n+1)(n+1)^2"),
    FigurateRow("n(3n+1)/2", Polynomial((0, HALF, 3 * HALF)), "(3n+1)(3n^2+4n+2)/2"),
    FigurateRow("C(n+2,3)", Binomial(2, 3), "n(n+1)(n+2)(n+3)(2n+3)/24"),
    FigurateRow("C(n+3,4)", Binomial(3, 4), "n(n+1)(n+2)^2(n+3)(n^2+6n+11)/144"),
    FigurateRow(
        "n(3n-1)/2",
        Polynomial((0, -HALF, 3 * HALF)),
        "3n(3n^2+2n+1)/2",
        # The published closed form divides by 3 instead of 2.
        published_sum_formula=lambda n: n * (3 * n * n + 2 * n + 1),
    ),
)

# Gap products of a_n = k*n + 1 for k = 0..5, columns n = 0..5, as published.
PUBLISHED_PRODUCTS_PLUS_1: tuple[tuple[str, int, tuple[int, ...]], ...] = (
    ("1", 0, (1, 1, 1, 1, 1, 1)),
    ("n+1", 1, (1, 1, 1, 1, 1, 1)),
    ("2n+1", 2, (2, 4, 6, 8, 10, 12)),
    ("3n+1", 3, (6, 30, 72, 132, 210, 306)),
    ("4n+1", 4, (24, 336, 1320, 6840, 12144, 19656)),
    ("5n+1", 5, (120, 5040, 32760, 116280, 303600, 657720)),
)

# Fuss-Catalan companion array fc(n, k), same layout, as published.
PUBLISHED_FUSS_CATALAN: tuple[tuple[str, int, tuple[int, ...]], ...] = (
    ("1", 0, (1, 1, 1, 1, 1, 1)),
    ("n+1", 1, (1, 1, 1, 1, 1, 1)),
    ("2n+1", 2, (1, 2, 3, 4, 5, 6)),
    ("3n+1", 3, (1, 5, 12, 22, 35, 51)),
    ("4n+1", 4, (1, 14, 55, 140, 285, 506)),
    ("5n+1", 5, (1, 42, 273, 969, 2530, 5481)),
)

# Gap products of a_n = k*n + 2, as published. The k=0 row prints the
# factorial-ratio value 1/2; the bottom row is mislabeled "5n+1".
PUBLISHED_PRODUCTS_PLUS_2: tuple[tuple[str, int, tuple[Union[int, str], ...]], ...] = (
    ("2", 0, ("1/2",) * 6),
    ("n+2", 1, (1, 1, 1, 1, 1, 1)),
    ("2n+2", 2, (3, 5, 7, 9, 11, 13)),
    ("3n+2", 3, (12, 42, 90, 156, 240, 342)),
    ("4n+2", 4, (60, 504, 1716, 4080, 7980, 13800)),
    ("5n+1", 5, (360, 7920, 43680, 143640, 358800, 755160)),
)

# Raney companion array R(n+1, 2)(k) = 2 * product / k!, as published.
PUBLISHED_RANEY_ARRAY: tuple[tuple[str, int, tuple[int, ...]], ...] = (
    ("k=0", 0, (1, 1, 1, 1, 1, 1)),
    ("k=1", 1, (2, 2, 2, 2, 2, 2)),
    ("k=2", 2, (3, 5, 7, 9, 11, 13)),
    ("k=3", 3, (4, 14, 30, 52, 80, 114)),
    ("k=4", 4, (5, 42, 143, 340, 665, 1150)),
    ("k=5", 5, (6, 136, 728, 2394, 5980, 12586)),
)

# Columns n = 0..5 of the four arrays above.
ARRAY_WIDTH = len(PUBLISHED_PRODUCTS_PLUS_1[0][2])

# Horadam rows: spec, label, published gap-sum gf (factored), published
# leading gap-sum terms. The (1,3,1,2) instance circulates without a
# published gap-sum gf, hence the None.
PUBLISHED_HORADAM_ROWS: tuple[
    tuple[Horadam, str, Optional[RatFunc], tuple[int, ...]], ...
] = (
    (
        Horadam(1, 1, 1, 1),
        "F(n+1)",
        RatFunc(Poly((1, -3, -1, 1)).scale(-1), Poly((1, -1, -1)) * Poly((1, -2, -2, 1))),
        (-1, 0, 0, 4, 13, 42, 119, 330),
    ),
    (
        Horadam(1, 1, 1, 2),
        "J(n+1)",
        RatFunc(Poly((1, -6)).scale(-1), Poly((1, -2)) * Poly((1, -2, -8))),
        (-1, 2, 4, 40, 144, 672, 2624, 10880),
    ),
    (
        Horadam(1, 2, 2, 1),
        "Pell(n+1)",
        RatFunc(Poly((0, 7, 2, -1)), Poly((1, -2, -1)) * Poly((1, -5, -5, 1))),
        (0, 7, 51, 328, 1980, 11711, 68663, 401184),
    ),
    (
        Horadam(1, 3, 1, 2),
        "J(n+2)",
        None,
        (2, 4, 40, 144),
    ),
    (
        Horadam(1, 2, 2, 2),
        "H(1,2,2,2)",
        RatFunc(Poly((0, 12, 3, -6)), Poly((1, -2, -2)) * Poly((1, -6, -12, 8))),
        (0, 12, 99, 810, 6150, 46368, 347004),
    ),
)

FC_ORIENTATION_NOTE = (
    "identity orientation: the published statements read P_n(kn+1) = k!*FC(k,n) and "
    "P_n(kn+r) = (k!/r)*R(k+1,r)(n), but the printed cells satisfy the transposed "
    "forms P_n(kn+1) = k!*fc(n,k) and P_n(kn+r) = (k!/r)*raney(n+1,r,k); the "
    "transposed forms are what check-identity verifies"
)

HALF_FACTOR_NOTE = (
    "the published gap-sum combination of the four component series omits the "
    "factor 1/2; the published expansions include it, so the builder applies it"
)

FOUR_N_PLUS_1_NOTE = (
    "row 4n+1: the published row omits the n=3 value 3360 and lists the "
    "n=4..6 values one column early"
)

# Replaces the kn+2 table's k=0 cell notes: its whole published row prints
# the factorial-ratio value 1/2.
ROW_2_NOTE = (
    "row 2: published 1/2 throughout, from the factorial-ratio form "
    "(a_(n+1)-1)!/a_n!; the empty gap's product is 1"
)

LABEL_5N_PLUS_1_NOTE = 'row labeled "5n+1": values are those of 5n+2'


def figurate_table() -> RefTable:
    headers = ("a_n", "S_n", f"S_0 .. S_{SHOWN_SUMS - 1}")
    rows = []
    corrections = []
    for row in FIGURATE_ROWS:
        sums = gap_sequence(gap_sum_between, row.spec, SHOWN_SUMS)
        rows.append((row.label, row.sum_label, " ".join(str(v) for v in sums)))
        if row.published_sum_formula is not None:
            n_bad = next(
                n for n in range(SHOWN_SUMS) if row.published_sum_formula(n) != sums[n]
            )
            corrections.append(
                f"row {row.label}: published closed form gives "
                f"{row.published_sum_formula(n_bad)} at n={n_bad} but the gap elements "
                f"sum to {sums[n_bad]}; corrected form is {row.sum_label}"
            )
    return RefTable("figurate gap-sums", headers, tuple(rows), tuple(corrections))


def _array_table(
    title: str,
    published: tuple[tuple[str, int, tuple], ...],
    compute: Callable[[int], list[int]],
    notes: tuple[str, ...] = (),
    row_notes: Optional[dict[int, str]] = None,
) -> RefTable:
    """A published array recomputed row by row, ``compute(k)`` giving row k.

    Each cell where the published value differs gets a correction, unless
    ``row_notes`` gives row k one note instead; the fixed ``notes`` follow.
    """
    header = ("a_n",) + tuple(f"n={n}" for n in range(ARRAY_WIDTH))
    rows = []
    corrections = []
    for label, k, cells in published:
        computed = compute(k)
        rows.append((label, *map(str, computed)))
        if row_notes and k in row_notes:
            corrections.append(row_notes[k])
            continue
        corrections += [
            f"row {label}, n={n}: published {theirs}, recomputed {ours}"
            for n, (ours, theirs) in enumerate(zip(computed, cells))
            if ours != theirs
        ]
    return RefTable(title, header, tuple(rows), tuple(corrections) + notes)


def fc_tables() -> list[RefTable]:
    products = {
        k: gap_sequence(gap_product_between, Linear(k, 1), ARRAY_WIDTH)
        for _, k, _ in PUBLISHED_PRODUCTS_PLUS_1
    }
    return [
        _array_table(
            "gap products of kn+1",
            PUBLISHED_PRODUCTS_PLUS_1,
            products.__getitem__,
            (FOUR_N_PLUS_1_NOTE, FC_ORIENTATION_NOTE),
        ),
        _array_table(
            "Fuss-Catalan numbers fc(n,k) = products / k!",
            PUBLISHED_FUSS_CATALAN,
            lambda k: [as_integer(Fraction(p, factorial(k))) for p in products[k]],
        ),
    ]


def raney_tables() -> list[RefTable]:
    return [
        _array_table(
            "gap products of kn+2",
            PUBLISHED_PRODUCTS_PLUS_2,
            lambda k: gap_sequence(gap_product_between, Linear(k, 2), ARRAY_WIDTH),
            (LABEL_5N_PLUS_1_NOTE,),
            {0: ROW_2_NOTE},
        ),
        _array_table(
            "Raney numbers raney(n+1,2,k) = 2 * products / k!",
            PUBLISHED_RANEY_ARRAY,
            lambda k: [as_integer(raney(n + 1, 2, k)) for n in range(ARRAY_WIDTH)],
            (FC_ORIENTATION_NOTE,),
        ),
    ]


def horadam_table() -> RefTable:
    headers = ("sequence", "g.f.", "gap-sum g.f.", f"S_0 .. S_{SHOWN_SUMS - 1}")
    rows = []
    corrections = [HALF_FACTOR_NOTE]
    for spec, label, published_gf, published_terms in PUBLISHED_HORADAM_ROWS:
        built = horadam_gap_sum_gf(spec)
        sums = gap_sequence(gap_sum_signed_between, spec, SHOWN_SUMS)
        rows.append(
            (
                label,
                ratfunc_to_text(horadam_gf(spec)),
                ratfunc_to_text(built),
                " ".join(str(v) for v in sums),
            )
        )
        if published_gf is not None and published_gf != built:
            corrections.append(
                f"{label}: published gap-sum g.f. differs from the built one"
            )
        for n, value in enumerate(published_terms):
            if sums[n] != value:
                corrections.append(
                    f"{label}: published S_{n} = {value}, recomputed {sums[n]}"
                )
    return RefTable(
        "Horadam gap-sum generating functions", headers, tuple(rows), tuple(corrections)
    )


def render_table(table: RefTable) -> str:
    """Plain-text rendering with aligned columns and a corrections section."""
    widths = [len(h) for h in table.headers]
    for row in table.rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [table.title]
    lines.append("  " + "  ".join(h.ljust(widths[i]) for i, h in enumerate(table.headers)))
    for row in table.rows:
        lines.append("  " + "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    if table.corrections:
        lines.append("corrections:")
        for note in table.corrections:
            lines.append(f"  - {note}")
    return "\n".join(lines) + "\n"
