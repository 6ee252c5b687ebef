import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cases
from oracle import NotConsistentError, rank_one_vector
from triadcomplete import (
    CompleteReciprocalMatrix,
    PartialReciprocalMatrix,
    Tolerances,
    is_pcm,
    validate,
)
from triadcomplete.errors import (
    DiagonalNotOneError,
    MatrixError,
    NonPositiveEntryError,
    NonSquareError,
    ReciprocalOverflowError,
    ReciprocityViolationError,
)

def reference_validate(raw, tol=Tolerances()):
    """``validate`` as a pair-by-pair loop; returns the entries or raises."""
    grid = np.array(raw, dtype=float)
    n = grid.shape[0]
    entries = np.full((n, n), np.nan)
    with np.errstate(all="ignore"):
        for i in range(n):
            v = grid[i, i]
            if not np.isnan(v) and (not np.isfinite(v) or abs(v - 1.0) > tol.rec):
                raise DiagonalNotOneError(i, v)
            entries[i, i] = 1.0
        for i in range(n):
            for j in range(i + 1, n):
                a, b = grid[i, j], grid[j, i]
                has_a, has_b = not np.isnan(a), not np.isnan(b)
                if not (has_a or has_b):
                    continue
                for r, c, v, has in ((i, j, a, has_a), (j, i, b, has_b)):
                    if has and not (v > 0.0 and np.isfinite(v)):
                        raise NonPositiveEntryError(r, c, v)
                if has_a and has_b and abs(a * b - 1.0) > tol.rec:
                    raise ReciprocityViolationError(i, j, a * b)
                value = a if has_a else 1.0 / b
                if not 0.0 < 1.0 / value < math.inf:
                    raise ReciprocalOverflowError(*((i, j, a) if has_a else (j, i, b)))
                entries[i, j], entries[j, i] = value, 1.0 / value
    return entries


CELLS = [math.nan, 1.0, 2.0, 0.5, 3.0, 1 / 3, 1.0 + 1e-12, 1e300, 1e-300, 0.0, -1.0,
         math.inf, -math.inf, 5e-324, 1e-310, 1.7e308]
DIAGONAL = [math.nan, 1.0, 1.0 + 1e-12, math.nan, 1.0, 1.0, 1.0 + 1e-8, math.inf]
weight_vectors = st.lists(
    st.floats(0.2, 5.0, allow_nan=False), min_size=3, max_size=6
).map(np.array)


class TestValidate:
    def test_one_by_one(self):
        m = validate([[1]])
        assert m.n == 1
        assert m.missing_pairs().tolist() == []
        assert m.missing_pairs().shape == (0, 2)
        assert m.entries[0, 0] == 1.0

    def test_partial_cycle_pattern(self):
        m = validate(cases.CYCLE_PCM)
        assert m.missing_pairs().tolist() == [[0, 2], [1, 3]]
        assert int((~m.mask).sum()) == 4

    def test_reciprocity_violation(self):
        with pytest.raises(ReciprocityViolationError) as exc:
            validate([[1, 2], [3, 1]])
        assert (exc.value.i, exc.value.j) == (0, 1)
        assert exc.value.product == pytest.approx(6.0)

    def test_non_square(self):
        with pytest.raises(NonSquareError):
            validate([[1, 2], [0.5, 1], [1, 1]])
        with pytest.raises(NonSquareError):
            validate([[1, 2, 3], [0.5, 1, 1]])

    def test_non_positive_entry(self):
        with pytest.raises(NonPositiveEntryError):
            validate([[1, -2], [None, 1]])
        with pytest.raises(NonPositiveEntryError):
            validate([[1, 0.0], [None, 1]])
        with pytest.raises(NonPositiveEntryError):
            validate([[1, float("inf")], [None, 1]])

    def test_diagonal_must_be_one(self):
        with pytest.raises(DiagonalNotOneError):
            validate([[1, 2], [0.5, 2]])

    def test_unspecified_diagonal_autofilled(self):
        m = validate([[None, 2], [0.5, None]])
        assert m.entries[0, 0] == 1.0 and m.entries[1, 1] == 1.0

    def test_one_sided_pair_filled_with_reciprocal(self):
        m = validate([[1, 4], [None, 1]])
        assert m.entries[1, 0] == 0.25
        assert m.mask[1, 0]

    def test_upper_triangle_is_authoritative(self):
        # 1/3 cannot be written exactly, so the mate is re-derived from the
        # upper value and the stored pair multiplies to exactly 1.
        third = 1.0 / 3.0
        m = validate([[1, third], [3.0000000001, 1]], Tolerances(rec=1e-6))
        assert m.entries[0, 1] == third
        assert m.entries[0, 1] * m.entries[1, 0] == 1.0

    def test_nan_and_none_both_mean_unspecified(self):
        m1 = validate([[1, None], [None, 1]])
        m2 = validate(np.array([[1, np.nan], [np.nan, 1]]))
        assert m1.missing_pairs().tolist() == m2.missing_pairs().tolist() == [[0, 1]]

    def test_reciprocal_out_of_range(self):
        # The stored pair would hold inf and 0: the named entry is subnormal.
        for raw, where in (
            ([[1, None], [5e-324, 1]], (1, 0)),
            ([[1, 1e-310, 1], [None, 1, 1], [1, 1, 1]], (0, 1)),
        ):
            with pytest.raises(ReciprocalOverflowError) as exc:
                validate(raw)
            assert (exc.value.i, exc.value.j) == where

    def test_first_bad_pair_in_row_major_order(self):
        raw = [[1, 1, 1, -1], [None, 1, 2, 1], [None, 2, 1, 1], [None, None, None, 1]]
        with pytest.raises(NonPositiveEntryError) as exc:
            validate(raw)
        assert (exc.value.i, exc.value.j) == (0, 3)

    @settings(max_examples=200)
    @given(st.data())
    def test_equals_pair_by_pair_loop(self, data):
        n = data.draw(st.integers(1, 5))
        cell = st.sampled_from([math.nan, 1.0]) | st.sampled_from(CELLS)
        raw = [[data.draw(cell) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            raw[i][i] = data.draw(st.sampled_from(DIAGONAL))
        try:
            want = reference_validate(raw)
        except MatrixError as exc:
            with pytest.raises(type(exc)) as got:
                validate(raw)
            assert str(got.value) == str(exc)
            return
        m = validate(raw)
        assert np.array_equal(m.entries, want, equal_nan=True)
        assert np.array_equal(m.mask, ~np.isnan(want))

    def test_arrays_are_immutable(self):
        m = validate([[1, 2], [0.5, 1]])
        with pytest.raises(ValueError):
            m.entries[0, 1] = 3.0
        with pytest.raises(ValueError):
            m.mask[0, 1] = False


class TestEntryEditing:
    def test_with_entry_sets_reciprocal_pair(self):
        m = validate([[1, None], [None, 1]]).with_entry(0, 1, 4.0)
        assert m.entries[0, 1] == 4.0 and m.entries[1, 0] == 0.25
        assert m.is_complete()

    def test_with_entry_refuses_a_reciprocal_out_of_range(self):
        m = validate([[1, 2, 3], [0.5, 1, 4], [1 / 3, 0.25, 1]])
        with pytest.raises(ReciprocalOverflowError, match=re.escape("entry (1, 3) = 1e-310")):
            m.with_entry(0, 2, 1e-310)
        assert m.with_entry(0, 2, sys.float_info.min).entries[2, 0] == 1 / sys.float_info.min

    def test_without_entry_masks_pair(self):
        m = validate([[1, 2], [0.5, 1]]).without_entry(0, 1)
        assert not m.mask[0, 1] and not m.mask[1, 0]
        assert np.isnan(m.entries[0, 1])

    def test_diagonal_refused(self):
        m = validate([[1, 2], [0.5, 1]])
        with pytest.raises(MatrixError):
            m.with_entry(0, 0, 2.0)
        with pytest.raises(MatrixError):
            m.without_entry(1, 1)

    def test_to_complete_requires_full_mask(self):
        m = validate([[1, None], [None, 1]])
        with pytest.raises(MatrixError):
            m.to_complete()
        assert isinstance(m.with_entry(0, 1, 2.0).to_complete(), CompleteReciprocalMatrix)

    @pytest.mark.parametrize(
        "method, args, where",
        [
            ("without_entry", (0, -3), "(1, -2)"),  # would clear the diagonal (1,1)
            ("with_entry", (1, -2, 5.0), "(2, -1)"),  # would write 0.2 onto (2,2)
            ("with_entry", (0, 3, 2.0), "(1, 4)"),  # past the last column
            ("without_entry", (3, 3), "(4, 4)"),  # the range is checked before the diagonal
        ],
    )
    def test_index_outside_matrix_refused(self, method, args, where):
        m = validate([[1, 2, 4], [0.5, 1, 2], [0.25, 0.5, 1]])
        with pytest.raises(MatrixError, match=re.escape(f"entry {where} is outside the 3x3")):
            getattr(m, method)(*args)
        assert np.array_equal(m.entries, [[1, 2, 4], [0.5, 1, 2], [0.25, 0.5, 1]])


class TestNanIsUnspecified:
    @pytest.mark.parametrize(
        "entries", [[[1, np.nan, 1], [np.nan, 1, 1], [1, 1, 1]], np.full((3, 3), np.nan)]
    )
    def test_complete_matrix_with_nan_refused(self, entries):
        with pytest.raises(MatrixError, match="unspecified"):
            CompleteReciprocalMatrix(entries)

    def test_nan_counts_as_unspecified(self):
        entries = np.array([[1.0, 2.0, np.nan], [0.5, 1.0, 3.0], [np.nan, 1 / 3, 1.0]])
        m = PartialReciprocalMatrix(entries)
        assert np.array_equal(m.mask, ~np.isnan(entries))
        assert sorted(m.graph.edges) == [(0, 1), (1, 2)]
        assert m.missing_pairs().tolist() == [[0, 2]]
        assert not m.is_complete()
        assert m.with_entry(0, 2, 6.0).is_complete()
        assert m.with_entry(0, 2, 6.0).without_entry(0, 2).mask.tolist() == m.mask.tolist()


class TestConsistency:
    def test_rank_one_construction(self):
        m = cases.consistent_matrix([1, 2, 4]).to_complete()
        assert is_pcm(m)

    def test_worked_block_is_inconsistent(self):
        # c(1,2,3) = 2 * (1/3) * 3 = 2 != 1
        assert not is_pcm(validate(cases.BLOCK_THREE).to_complete())

    def test_any_two_by_two_is_consistent(self):
        assert is_pcm(validate([[1, 7.3], [None, 1]]).to_complete())

    @given(weight_vectors)
    def test_rank_one_always_consistent(self, w):
        assert is_pcm(cases.consistent_matrix(w).to_complete())

    @given(weight_vectors, st.data())
    def test_single_perturbation_breaks_consistency(self, w, data):
        m = cases.consistent_matrix(w).to_complete()
        n = m.n
        i = data.draw(st.integers(0, n - 2))
        j = data.draw(st.integers(i + 1, n - 1))
        bad = m.with_entry(i, j, float(m.entries[i, j]) * (1 + 10 * 1e-9)).to_complete()
        assert not is_pcm(bad)


class TestRankOneVector:
    def test_all_ones(self):
        m = validate(np.ones((3, 3))).to_complete()
        assert rank_one_vector(m) == pytest.approx([1, 1, 1])

    def test_round_trip(self):
        w = np.array([1.0, 0.5, 3.0])
        m = cases.consistent_matrix(w).to_complete()
        assert rank_one_vector(m) == pytest.approx(w, rel=1e-12)

    def test_first_column_of_completed_cycle(self):
        from triadcomplete import complete_consistent_pc_plus

        done = complete_consistent_pc_plus(validate(cases.CYCLE_PC_PLUS))
        assert rank_one_vector(done) == pytest.approx([1, 0.5, 1.5, 0.3], rel=1e-9)

    def test_rejects_inconsistent(self):
        with pytest.raises(NotConsistentError):
            rank_one_vector(validate(cases.BLOCK_THREE).to_complete())

    @given(weight_vectors)
    def test_outer_product_reconstruction(self, w):
        m = cases.consistent_matrix(w).to_complete()
        v = rank_one_vector(m)
        rebuilt = np.outer(v, 1.0 / v)
        assert np.max(np.abs(rebuilt / m.entries - 1.0)) <= 1e-9
