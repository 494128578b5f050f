import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gclkit import affinity as aff
from gclkit.batch import build_prototype_batch


def flat(i, k):
    return 2 * i + k


class TestType1:
    def test_n2_anchor_row_single_positive(self):
        a = aff.type1_affinity(2).a
        row = a[flat(0, 0)]
        assert (row == 1.0).sum() == 1
        assert row[flat(0, 1)] == 1.0

    def test_each_active_row_single_nonzero(self):
        a = aff.type1_affinity(3).a
        for i in range(6):
            if np.any(a[i] != 0):
                assert (a[i] != 0).sum() == 1

    def test_entries_sum_to_zero(self):
        for n in (2, 3, 5):
            assert aff.type1_affinity(n).a.sum() == 0.0

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            aff.type1_affinity(1)


class TestType2:
    def test_n2_anchor_row(self):
        a = aff.type2_affinity(2).a
        row = a[flat(0, 0)]
        assert row[flat(0, 1)] == 1.0
        assert row[flat(1, 1)] == -1.0
        assert (row != 0).sum() == 2

    def test_zero_diagonal(self):
        assert np.all(np.diag(aff.type2_affinity(4).a) == 0.0)

    def test_each_anchor_row_one_pos_one_neg(self):
        a = aff.type2_affinity(5).a
        assert np.all((a == 1.0).sum(axis=1) == 1)
        assert np.all((a == -1.0).sum(axis=1) == 1)


class TestType3:
    def test_n3_query_rows(self):
        a = aff.type3_affinity(3).a
        for i in range(3):
            row = a[flat(i, 0)]
            assert (row == 1.0).sum() == 1 and (row == -1.0).sum() == 2
            # all nonzeros sit at slot-2 columns
            assert np.all(row[0::2] == 0.0)

    def test_slot2_rows_inactive(self):
        a = aff.type3_affinity(4).a
        assert np.all(a[1::2] == 0.0)

    def test_n1_degenerate_single_positive(self):
        a = aff.type3_affinity(1).a
        assert a[0, 1] == 1.0 and (a != 0).sum() == 1


class TestType4:
    def test_row_structure(self):
        n = 4
        a = aff.type4_affinity(n).a
        for i in range(2 * n):
            row = a[i]
            assert (row == 1.0).sum() == 1
            assert (row == 0.0).sum() == 1 and row[i] == 0.0
            assert (row == -1.0).sum() == 2 * n - 2

    def test_symmetric(self):
        a = aff.type4_affinity(5).a
        assert np.array_equal(a, a.T)

    def test_n2_zero_diagonal(self):
        a = aff.type4_affinity(2).a
        assert a.shape == (4, 4)
        assert np.all(np.diag(a) == 0.0)


class TestSemi:
    def test_degenerate_groups(self):
        assert np.array_equal(aff.semi_affinity(3, 0).a, aff.type4_affinity(3).a)
        assert np.array_equal(aff.semi_affinity(0, 3).a, aff.type4_affinity(3).a)

    def test_cross_block_all_negative(self):
        m = aff.semi_affinity(2, 3)
        assert m.a[:4, 4:].shape == (4, 6)
        assert np.all(m.a[:4, 4:] == -1.0)
        assert np.all(m.a[4:, :4] == -1.0)

    def test_blocks_match_type4(self):
        m = aff.semi_affinity(2, 3).a
        assert np.array_equal(m[:4, :4], aff.type4_affinity(2).a)
        assert np.array_equal(m[4:, 4:], aff.type4_affinity(3).a)

    def test_every_row_exactly_one_positive(self):
        for n, np_ in ((1, 1), (2, 3), (4, 2)):
            a = aff.semi_affinity(n, np_).a
            assert np.all((a == 1.0).sum(axis=1) == 1)

    def test_relaxed_zeroes_distinct_unlabeled(self):
        m = aff.semi_affinity(2, 3, relaxed_unlabeled=True).a
        block = m[4:, 4:]
        assert np.all(block[block != 1.0] == 0.0)
        # labeled block and cross blocks untouched
        assert np.array_equal(m[:4, :4], aff.type4_affinity(2).a)
        assert np.all(m[:4, 4:] == -1.0)


class TestDensityAndPermutation:
    # Nonzero counts are 2n, 4n, n^2 and 2n(2n-1); the pair/episode counts
    # only separate once n^2 > 4n, so strict ordering starts at n = 5.
    @pytest.mark.parametrize("n", [5, 6, 8, 12])
    def test_density_strictly_increasing(self, n):
        counts = [
            int((ctor(n).a != 0).sum())
            for ctor in (aff.type1_affinity, aff.type2_affinity,
                         aff.type3_affinity, aff.type4_affinity)
        ]
        assert counts == sorted(set(counts))

    @given(n=st.integers(2, 8), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_class_relabeling_conjugation(self, n, seed):
        # Layouts whose entries depend only on same-class membership are
        # unchanged by conjugating with any class permutation.
        perm = np.random.default_rng(seed).permutation(n)
        p = np.zeros((2 * n, 2 * n))
        for i in range(n):
            p[flat(perm[i], 0), flat(i, 0)] = 1.0
            p[flat(perm[i], 1), flat(i, 1)] = 1.0
        for ctor in (aff.type3_affinity, aff.type4_affinity):
            a = ctor(n).a
            assert np.array_equal(p @ a @ p.T, a)

    def test_cyclic_relabeling_conjugation_pairwise_types(self):
        # The pair/triplet layouts key negatives off the cyclic class order,
        # so conjugation holds for rotations of that order.
        n = 5
        shift = np.roll(np.arange(n), 2)
        p = np.zeros((2 * n, 2 * n))
        for i in range(n):
            p[flat(shift[i], 0), flat(i, 0)] = 1.0
            p[flat(shift[i], 1), flat(i, 1)] = 1.0
        for ctor in (aff.type1_affinity, aff.type2_affinity):
            a = ctor(n).a
            assert np.array_equal(p @ a @ p.T, a)


class TestValidate:
    def _batch(self, n):
        rng = np.random.default_rng(0)
        return build_prototype_batch(rng.normal(size=(n, 2, 3)))

    def test_type3_active_counts(self):
        m = aff.type3_affinity(3)
        assert aff.validate(m, self._batch(3)) is m
        active = m.active
        assert active.sum() == 3
        assert np.array_equal(active, np.tile([True, False], 3))
        assert not active.flags.writeable

    def test_type4_all_active(self):
        assert aff.validate(aff.type4_affinity(3), self._batch(3)).active.sum() == 6

    def test_all_zero_all_inactive(self):
        m = aff.AffinityMatrix(np.zeros((6, 6)))
        assert aff.validate(m, self._batch(3)).active.sum() == 0

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="size"):
            aff.validate(aff.type4_affinity(2), self._batch(3))

    def test_rejects_general_values_by_default(self):
        m = aff.AffinityMatrix(np.full((4, 4), 0.5))
        with pytest.raises(ValueError, match="entries"):
            aff.validate(m, self._batch(2))
        aff.validate(m, self._batch(2), allow_general=True)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            aff.validate(aff.AffinityMatrix(np.zeros((4, 6))), None)


class TestMemoizedChecks:
    def _batch(self, n):
        rng = np.random.default_rng(0)
        return build_prototype_batch(rng.normal(size=(n, 2, 3)))

    def test_write_through_a_raises(self):
        m = aff.type4_affinity(2)
        with pytest.raises(ValueError, match="read-only"):
            m.a[0, 1] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            m.active[0] = False

    def test_callers_array_left_writable(self):
        a = np.zeros((4, 4))
        m = aff.AffinityMatrix(a)
        assert a.flags.writeable and not m.a.flags.writeable
        assert np.shares_memory(a, m.a)

    def test_memo_matches_direct_checks(self):
        for m in (aff.type1_affinity(3), aff.type3_affinity(4),
                  aff.semi_affinity(2, 3, relaxed_unlabeled=True)):
            assert m.ternary
            assert np.array_equal(m.active, (m.a > 0).any(axis=1))
        for bad in (0.5, np.nan, np.inf, 2.0):
            a = np.zeros((4, 4))
            a[1, 2] = bad
            assert not aff.AffinityMatrix(a).ternary

    def test_int8_entry_check_allocates_no_per_cell_array(self):
        # A type-4 N = 384 matrix is 768 x 768 int8 cells (576 KiB); its entry
        # check reads the range, with no temporary of one byte per cell.
        m = aff.type4_affinity(384)
        tracemalloc.start()
        try:
            assert m.ternary
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * m.a.nbytes, peak
        for dtype, bad in ((np.int8, 2), (np.int8, -2), (float, 0.5)):
            a = np.zeros((4, 4), dtype=dtype)
            a[1, 2] = bad
            assert not aff.AffinityMatrix(a).ternary, (dtype, bad)

    def test_every_call_checks_shape_and_size(self):
        m = aff.type4_affinity(2)
        aff.validate(m, self._batch(2))
        for _ in range(2):
            with pytest.raises(ValueError, match="size"):
                aff.validate(m, self._batch(3))
        general = aff.AffinityMatrix(np.full((4, 4), 0.5))
        for _ in range(2):
            with pytest.raises(ValueError, match="entries"):
                aff.validate(general, self._batch(2))
        assert aff.validate(general, self._batch(2), allow_general=True).active.sum() == 4
        nonsquare = aff.AffinityMatrix(np.zeros((4, 6)))
        for _ in range(2):
            with pytest.raises(ValueError, match="square"):
                aff.validate(nonsquare, None)


class TestPartner:
    """The plan's partner column: set from the entries for the dense
    patterns only, NT-Xent on the whole matrix and the episode block."""

    def test_type4_and_strict_semi(self):
        for m in (aff.type4_affinity(1), aff.type4_affinity(6), aff.semi_affinity(3, 4),
                  aff.semi_affinity(0, 2)):
            a = m.a
            rows = np.arange(len(m.a))
            assert np.array_equal(a[rows, m._plan.partner], np.ones(len(m.a)))
            assert np.array_equal(m._plan.partner, rows ^ 1)  # the other view of the pair

    def test_type3_query_x_prototype_block(self):
        # Block column i is prototype i, query i's positive.
        for n in (1, 4, 13):
            assert np.array_equal(aff.type3_affinity(n)._plan.partner, np.arange(n))

    def test_found_from_content_not_builder(self):
        m = aff.AffinityMatrix(aff.type4_affinity(3).a.astype(float) * 0.5)
        assert np.array_equal(m._plan.partner, aff.type4_affinity(3)._plan.partner)

    def test_none_for_other_layouts(self):
        for m in (aff.type1_affinity(3), aff.type2_affinity(3),
                  aff.semi_affinity(2, 3, relaxed_unlabeled=True),
                  aff.AffinityMatrix(np.zeros((6, 6)))):
            assert m._plan.partner is None

    @pytest.mark.parametrize("cell, value", [((0, 3), 0), ((2, 5), 1), ((4, 4), -1)],
                             ids=["zero cell", "two positives", "nonzero diagonal"])
    def test_none_after_one_edit(self, cell, value):
        a = aff.type4_affinity(3).a.copy()
        a[cell] = value
        assert aff.AffinityMatrix(a)._plan.partner is None

    def test_read_only_and_memoized(self):
        m = aff.type4_affinity(3)
        assert m._plan is m._plan and m._plan.partner is m._plan.partner
        with pytest.raises(ValueError, match="read-only"):
            m._plan.partner[0] = 0


class TestInt8Storage:
    def test_builders_store_int8(self):
        for m in (aff.type1_affinity(3), aff.type2_affinity(3), aff.type3_affinity(3),
                  aff.type4_affinity(3), aff.semi_affinity(2, 3),
                  aff.semi_affinity(2, 3, relaxed_unlabeled=True)):
            assert m.a.dtype == np.int8

    def test_given_dtype_kept(self):
        assert aff.AffinityMatrix(np.zeros((4, 4))).a.dtype == np.float64

    def test_strict_semi_is_type4_over_all_samples(self):
        for n, n_prime in ((1, 1), (2, 3), (13, 4), (7, 20), (346, 38)):
            assert_same_bytes(aff.semi_affinity(n, n_prime).a,
                              aff.type4_affinity(n + n_prime).a)


def ref_type1(n):
    a = np.zeros((2 * n, 2 * n))
    for i in range(n):
        a[flat(i, 0), flat(i, 1)] = 1.0
        a[flat(i, 1), flat((i + 1) % n, 0)] = -1.0
    return a


def ref_type2(n):
    a = np.zeros((2 * n, 2 * n))
    for i in range(n):
        j = (i + 1) % n
        a[flat(i, 0), flat(i, 1)] = 1.0
        a[flat(i, 1), flat(i, 0)] = 1.0
        a[flat(i, 0), flat(j, 1)] = -1.0
        a[flat(i, 1), flat(j, 0)] = -1.0
    return a


def ref_type3(n):
    a = np.zeros((2 * n, 2 * n))
    for i in range(n):
        for j in range(n):
            a[flat(i, 0), flat(j, 1)] = 1.0 if i == j else -1.0
    return a


def ref_type4(n):
    a = -np.ones((2 * n, 2 * n))
    for i in range(n):
        a[flat(i, 0), flat(i, 1)] = 1.0
        a[flat(i, 1), flat(i, 0)] = 1.0
        a[flat(i, 0), flat(i, 0)] = 0.0
        a[flat(i, 1), flat(i, 1)] = 0.0
    return a


def ref_semi(n_labeled, n_unlabeled, relaxed):
    """Cell by cell from the (group, index, slot) tags of each entry.

    An all-unlabeled batch keeps the plain type-4 layout: semi_affinity
    applies ``relaxed_unlabeled`` only when labeled entries are present.
    """
    relaxed = relaxed and n_labeled > 0
    tags = [(g, i, k) for g, count in ((0, n_labeled), (1, n_unlabeled))
            for i in range(count) for k in (0, 1)]
    a = np.empty((len(tags), len(tags)))
    for p, (g, i, k) in enumerate(tags):
        for q, (h, j, l) in enumerate(tags):
            if p == q:
                a[p, q] = 0.0
            elif (g, i) == (h, j):
                a[p, q] = 1.0
            elif relaxed and g == h == 1:
                a[p, q] = 0.0
            else:
                a[p, q] = -1.0
    return a


def assert_same_bytes(got, want):
    # byte equality also pins the sign of every zero
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestReferenceLayouts:
    """The vectorized builders against naive cell-by-cell constructions.

    The references are built in float64; the builders store int8, so each
    reference is cast (exactly, its entries are -1, 0 and +1) before the
    byte comparison.
    """

    @pytest.mark.parametrize("ctor,ref,n_min", [
        (aff.type1_affinity, ref_type1, 2),
        (aff.type2_affinity, ref_type2, 2),
        (aff.type3_affinity, ref_type3, 1),
        (aff.type4_affinity, ref_type4, 1),
    ], ids=["type1", "type2", "type3", "type4"])
    def test_types_match_reference(self, ctor, ref, n_min):
        for n in range(n_min, 41):
            m = ctor(n)
            assert_same_bytes(m.a, ref(n).astype(np.int8))

    @pytest.mark.parametrize("relaxed", [False, True])
    def test_semi_matches_reference(self, relaxed):
        for n, n_prime in ((1, 0), (0, 1), (5, 0), (0, 5), (1, 1), (2, 3), (4, 2),
                           (13, 4), (7, 20)):
            m = aff.semi_affinity(n, n_prime, relaxed_unlabeled=relaxed)
            assert_same_bytes(m.a, ref_semi(n, n_prime, relaxed).astype(np.int8))

    def test_golden_type4_n2(self):
        want = np.array([[0, 1, -1, -1], [1, 0, -1, -1], [-1, -1, 0, 1], [-1, -1, 1, 0]],
                        dtype=np.int8)
        assert_same_bytes(aff.type4_affinity(2).a, want)
