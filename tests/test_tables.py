from math import comb

from gapseq import tables
from gapseq.gaps import gap_sequence, gap_sum_between, gap_sum_signed
from gapseq.genfun import horadam_gf, ratfunc_from_terms
from gapseq.sequences import Binomial, terms


def _one_minus_x_pow(m):
    return [(-1) ** i * comb(m, i) for i in range(m + 1)]


class TestFigurate:
    def test_rows_internally_consistent(self):
        # 24 terms recover each g.f.; the expansion then predicts 80 terms.
        for row in tables.FIGURATE_ROWS:
            spec = row.spec
            degree = spec.lower if isinstance(spec, Binomial) else len(spec.coeffs) - 1
            for values, den_power in (
                (terms(spec, 0, 80), degree + 1),
                (gap_sequence(gap_sum_between, spec, 80), 2 * degree),
            ):
                f = ratfunc_from_terms(values[:24])
                assert [int(c) for c in f.den.coeffs] == _one_minus_x_pow(den_power), row.label
                assert f.expand(80) == values, row.label

    def test_pentagonal_is_the_only_correction(self):
        flagged = [r.label for r in tables.FIGURATE_ROWS if r.published_sum_formula]
        assert flagged == ["n(3n-1)/2"]

    def test_table_carries_pentagonal_footnote(self):
        table = tables.figurate_table()
        assert len(table.rows) == 7
        assert len(table.corrections) == 1
        assert "n(3n-1)/2" in table.corrections[0]
        assert "6 at n=1" in table.corrections[0]


class TestFcTables:
    def test_product_cells_match_published_except_4n1_tail(self):
        products, _ = tables.fc_tables()
        assert products.corrections == (
            "row 4n+1, n=3: published 6840, recomputed 3360",
            "row 4n+1, n=4: published 12144, recomputed 6840",
            "row 4n+1, n=5: published 19656, recomputed 12144",
            "row 4n+1: the published row omits the n=3 value 3360 and lists the "
            "n=4..6 values one column early",
            tables.FC_ORIENTATION_NOTE,
        )

    def test_fc_cells_all_match(self):
        _, fc = tables.fc_tables()
        assert fc.corrections == ()


class TestRaneyTables:
    def test_product_corrections(self):
        products, _ = tables.raney_tables()
        # every k >= 1 published product cell is reproduced
        assert products.corrections == (
            "row 2: published 1/2 throughout, from the factorial-ratio form "
            "(a_(n+1)-1)!/a_n!; the empty gap's product is 1",
            'row labeled "5n+1": values are those of 5n+2',
        )

    def test_raney_array_single_cell_correction(self):
        _, raney_array = tables.raney_tables()
        assert raney_array.corrections == (
            "row k=5, n=1: published 136, recomputed 132",
            tables.FC_ORIENTATION_NOTE,
        )


class TestHoradamTable:
    def test_published_gfs_equal_built_gfs(self):
        for spec, _, published_gf, _ in tables.PUBLISHED_HORADAM_ROWS:
            if published_gf is not None:
                assert horadam_gf(spec, "gapsum") == published_gf

    def test_published_terms_match_signed_sums(self):
        for spec, _, _, published_terms in tables.PUBLISHED_HORADAM_ROWS:
            got = [gap_sum_signed(spec, n) for n in range(len(published_terms))]
            assert got == list(published_terms)

    def test_no_cell_corrections(self):
        table = tables.horadam_table()
        assert table.corrections == (tables.HALF_FACTOR_NOTE,)
        assert len(table.rows) == 5

    def test_wrong_published_cells_are_corrected(self, monkeypatch):
        fib, jac = tables.PUBLISHED_HORADAM_ROWS[:2]
        monkeypatch.setattr(tables, "PUBLISHED_HORADAM_ROWS", (
            (fib[0], fib[1], horadam_gf(fib[0]), fib[3]),
            (jac[0], jac[1], jac[2], (-1, 2, 5, 40)),
        ))
        assert tables.horadam_table().corrections == (
            tables.HALF_FACTOR_NOTE,
            "F(n+1): published gap-sum g.f. differs from the built one",
            "J(n+1): published S_2 = 5, recomputed 4",
        )


class TestRendering:
    def test_render_contains_rows_and_corrections(self):
        text = tables.render_table(tables.figurate_table())
        assert "figurate gap-sums" in text
        assert "corrections:" in text
        assert "0 9 51 153" in text  # pentagonal sums

    def test_correction_free_table_has_no_section(self):
        _, fc = tables.fc_tables()
        assert "corrections:" not in tables.render_table(fc)
