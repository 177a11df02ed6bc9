import pytest

from gapseq.folding import a088748, descent_marker, fold, fold_identity_check
from gapseq.gaps import gap_sum, gap_sum_abs
from gapseq.sequences import Fold, Linear, term

WALK_LISTING = [1, 2, 3, 2, 3, 4, 3, 2, 3, 4, 5, 4, 3, 4, 3, 2, 3, 4, 5, 4, 5, 6, 5]
ABS_SUM_LISTING = [0, 0, 9, 0, 0, 11, 9, 0, 0, 0, 13, 11, 0, 11, 9, 0, 0, 0, 13, 0, 0]
MARKER_LISTING = [0, 0, 5, 0, 0, 7, 5, 0, 0, 0, 9, 7, 0, 7, 5, 0, 0, 0, 9, 0, 0]


class TestFold:
    def test_first_bits_from_walk_differences(self):
        # a(n+1) - a(n) = 1 - 2*fold(n) recovers the bits from the listing
        derived = [(1 - (WALK_LISTING[n + 1] - WALK_LISTING[n])) // 2 for n in range(8)]
        assert derived == [0, 0, 1, 0, 0, 1, 1, 0]
        assert [fold(n) for n in range(8)] == derived

    def test_multiples_of_four(self):
        assert all(fold(4 * n) == 0 for n in range(101))
        assert all(fold(4 * n + 2) == 1 for n in range(101))

    def test_odd_recursion(self):
        assert all(fold(2 * n + 1) == fold(n) for n in range(500))

    def test_negative_rejected(self):
        with pytest.raises(IndexError):
            fold(-1)


class TestWalk:
    def test_listing(self):
        assert [a088748(n) for n in range(23)] == WALK_LISTING

    def test_initial_value(self):
        assert a088748(0) == 1

    def test_negative_rejected(self):
        with pytest.raises(IndexError, match=r"^walk index must be >= 0, got -1$"):
            a088748(-1)

    def test_positive_sweep(self):
        assert all(a088748(n) >= 1 for n in range(10_001))

    def test_unit_steps(self):
        values = [a088748(n) for n in range(4097)]
        assert all(abs(b - a) == 1 for a, b in zip(values, values[1:]))

    def test_clamped_gap_sum_is_zero(self):
        assert all(gap_sum(Fold(), n) == 0 for n in range(4096))


class TestDescentMarker:
    def test_fold_values(self):
        assert descent_marker(Fold(), 2) == 5
        assert descent_marker(Fold(), 5) == 7

    def test_listing(self):
        assert [descent_marker(Fold(), n) for n in range(21)] == MARKER_LISTING

    def test_increasing_sequence_all_zero(self):
        assert all(descent_marker(Linear(1, 0), n) == 0 for n in range(50))


class TestAbsGapSumStructure:
    def test_listing(self):
        assert [gap_sum_abs(Fold(), n) for n in range(21)] == ABS_SUM_LISTING

    def test_nonzero_exactly_at_fold_bits(self):
        for n in range(2048):
            if fold(n) == 0:
                assert gap_sum_abs(Fold(), n) == 0
            else:
                assert gap_sum_abs(Fold(), n) == 2 * term(Fold(), n) + 3


class TestFoldIdentity:
    def test_examples(self):
        assert fold_identity_check(2)  # 9 - 5 == 4
        assert fold_identity_check(0)  # 0 - 0 == 0
        assert fold_identity_check(10)  # 13 - 9 == 4

    def test_difference_is_four_times_fold(self):
        diffs = [
            gap_sum_abs(Fold(), n) - descent_marker(Fold(), n) for n in range(21)
        ]
        assert diffs == [4 * fold(n) for n in range(21)]
        assert diffs == [0, 0, 4, 0, 0, 4, 4, 0, 0, 0, 4, 4, 0, 4, 4, 0, 0, 0, 4, 0, 0]

    def test_sweep(self):
        assert all(fold_identity_check(n) for n in range(4096))
