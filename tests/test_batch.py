import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gclkit import batch as batching
from gclkit import synth
from gclkit.synth import LabeledDataset

from conftest import random_augmented_batch, random_prototype_batch


def toy_dataset(n_classes=4, per_class=5, f=3, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(n_classes), per_class)
    return LabeledDataset(rng.normal(size=(n_classes * per_class, f)), labels)


class TestTwoStepSample:
    def test_shapes_and_distinct_classes(self):
        mb = batching.two_step_sample(toy_dataset(), 3, 2, np.random.default_rng(0))
        assert mb.samples.shape == (3, 2, 3)
        assert len(np.unique(mb.labels)) == 3

    def test_single_class_pair_is_exact(self):
        ds = toy_dataset(n_classes=1, per_class=2)
        mb = batching.two_step_sample(ds, 1, 2, np.random.default_rng(0))
        assert sorted(map(tuple, mb.samples[0])) == sorted(map(tuple, ds.features))

    def test_deterministic_under_seed(self):
        ds = toy_dataset()
        a = batching.two_step_sample(ds, 2, 3, np.random.default_rng(42))
        b = batching.two_step_sample(ds, 2, 3, np.random.default_rng(42))
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.labels, b.labels)

    def test_no_replacement_within_class(self):
        ds = toy_dataset(per_class=3)
        mb = batching.two_step_sample(ds, 2, 3, np.random.default_rng(1))
        for cls in mb.samples:
            assert len({tuple(row) for row in cls}) == 3

    def test_capacity_errors(self):
        ds = toy_dataset(n_classes=2, per_class=2)
        with pytest.raises(batching.CapacityError):
            batching.two_step_sample(ds, 3, 2, np.random.default_rng(0))
        with pytest.raises(batching.CapacityError):
            batching.two_step_sample(ds, 2, 3, np.random.default_rng(0))


class TestPrototypeBatch:
    def test_kprime2_prototype_is_single_support(self):
        enc = np.arange(12, dtype=float).reshape(2, 2, 3)
        rep = batching.build_prototype_batch(enc)
        assert np.array_equal(rep.z[1], enc[0, 1])
        assert np.array_equal(rep.z[3], enc[1, 1])

    def test_kprime3_mean_of_supports(self):
        enc = np.array([[[9.0, 9.0], [1.0, 0.0], [0.0, 1.0]]])
        rep = batching.build_prototype_batch(enc)
        assert np.array_equal(rep.z[1], [0.5, 0.5])

    def test_cardinality_and_tags(self):
        rep = batching.build_prototype_batch(np.random.default_rng(0).normal(size=(2, 2, 4)))
        assert rep.size == 4 and rep.n_labeled == 2 and rep.n_unlabeled == 0
        assert np.array_equal(rep.slots, [1, 2, 1, 2])
        assert np.array_equal(rep.indices, [1, 1, 2, 2])
        assert np.all(rep.groups == 0)

    def test_rejects_kprime1(self):
        with pytest.raises(ValueError):
            batching.build_prototype_batch(np.zeros((2, 1, 3)))

    @given(c=st.floats(-3, 3, allow_nan=False), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_linearity_under_scaling(self, c, seed):
        enc = np.random.default_rng(seed).normal(size=(3, 3, 4))
        base = batching.build_prototype_batch(enc)
        scaled = batching.build_prototype_batch(c * enc)
        assert np.allclose(scaled.z, c * base.z)


class TestAugmentedBatch:
    def test_identity_transforms_equal_views(self):
        samples = np.random.default_rng(0).normal(size=(3, 4))
        views = synth.paired_views(samples, lambda x: x, lambda x: x)
        rep = batching.build_augmented_batch(views)
        assert np.array_equal(rep.z[0::2], samples) and np.array_equal(rep.z[1::2], samples)
        assert rep.n_labeled == 0 and rep.n_unlabeled == 3

    def test_cardinality(self):
        rep = batching.build_augmented_batch(np.zeros((4, 3)))
        assert rep.size == 4 and rep.n_unlabeled == 2

    @pytest.mark.parametrize("shape", [(3, 2), (4,), (2, 2, 2)])
    def test_rejects_anything_but_view_pairs(self, shape):
        with pytest.raises(ValueError, match="expected"):
            batching.build_augmented_batch(np.zeros(shape))

    def test_deterministic_under_seed(self):
        samples = np.random.default_rng(0).normal(size=(4, 3))

        def build(seed):
            rng = np.random.default_rng(seed)
            noise = lambda x: x + rng.normal(size=x.shape)
            return batching.build_augmented_batch(synth.paired_views(samples, noise, noise))

        assert np.array_equal(build(7).z, build(7).z)


class TestMergeAndSplit:
    def test_cardinality(self, rng):
        merged = batching.merge_semi_batch(random_prototype_batch(rng, n=2, d=4),
                                           random_augmented_batch(rng, n=3, d=4))
        assert merged.size == 10
        assert merged.n_labeled == 2 and merged.n_unlabeled == 3

    def test_rejects_mixed_or_mismatched(self, rng):
        z0 = random_prototype_batch(rng, n=2, d=4)
        z1 = random_augmented_batch(rng, n=2, d=5)
        with pytest.raises(ValueError, match="dims"):
            batching.merge_semi_batch(z0, z1)
        with pytest.raises(ValueError, match="expects"):
            batching.merge_semi_batch(z0, z0)


class TestRepresentationBatchValidation:
    def test_rejects_wrong_cardinality(self):
        with pytest.raises(ValueError, match="2"):
            batching.RepresentationBatch(np.zeros((3, 2)), np.zeros(3, int),
                                         np.ones(3, int), np.ones(3, int), 2, 0)

    def test_rejects_nonfinite(self):
        z = np.zeros((2, 2))
        z[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            batching.RepresentationBatch(z, np.zeros(2, int), np.ones(2, int),
                                         np.array([1, 2]), 1, 0)

    def test_rejects_missing_slot(self):
        with pytest.raises(ValueError, match=r"entry 1 is \(group=0, index=2, slot=1\), "
                                             r"canonical order puts \(group=0, index=1, slot=2\)"):
            batching.RepresentationBatch(np.zeros((2, 2)), np.zeros(2, int),
                                         np.array([1, 2]), np.array([1, 1]), 1, 0)

    def test_rejects_duplicate_tag(self):
        with pytest.raises(ValueError, match=r"entry 3 is \(group=0, index=1, slot=1\), "
                                             r"canonical order puts \(group=0, index=2, slot=2\)"):
            batching.RepresentationBatch(np.zeros((4, 2)), np.zeros(4, int),
                                         np.array([1, 1, 2, 1]), np.array([1, 2, 1, 1]), 2, 0)

    def test_missing_slot_names_first_pair_in_batch_order(self):
        # pairs (0, 3) and (0, 1) both lack slot 2; entry 0 is the first to differ
        with pytest.raises(ValueError, match=r"entry 0 is \(group=0, index=3, slot=1\)"):
            batching.RepresentationBatch(np.zeros((4, 2)), np.zeros(4, int),
                                         np.array([3, 2, 2, 1]), np.array([1, 1, 2, 1]), 2, 0)

    @pytest.mark.parametrize("groups, indices, slots, n, first", [
        ([0, 0, 0, 0], [1, 1, 2, 2], [2, 1, 2, 1], (2, 0), "group=0, index=1, slot=2"),
        ([0, 0, 0, 0], [2, 2, 1, 1], [1, 2, 1, 2], (2, 0), "group=0, index=2, slot=1"),
        ([1, 1, 0, 0], [1, 1, 1, 1], [1, 2, 1, 2], (1, 1), "group=1, index=1, slot=1"),
    ])
    def test_rejects_complete_unique_but_noncanonical(self, groups, indices, slots, n, first):
        # every (group, index) pair has both slots exactly once, yet the order
        # is not the one the affinity layouts index by
        with pytest.raises(ValueError, match=rf"entry 0 is \({first}\)"):
            batching.RepresentationBatch(np.zeros((4, 2)), np.array(groups), np.array(indices),
                                         np.array(slots), *n)

    def test_rejects_wrong_tag_length(self):
        g, i, s = batching.canonical_tags(2, 0)
        with pytest.raises(ValueError, match="need 4 .* tags, got 4, 3, 4"):
            batching.RepresentationBatch(np.zeros((4, 2)), g, i[:3], s, 2, 0)
        with pytest.raises(ValueError, match="need 4 .* tags, got 6, 6, 6"):
            batching.RepresentationBatch(np.zeros((4, 2)), *batching.canonical_tags(3, 0), 2, 0)


class TestCanonicalTags:
    def test_layout(self):
        g, i, s = batching.canonical_tags(2, 1)
        assert g.tolist() == [0, 0, 0, 0, 1, 1]
        assert i.tolist() == [1, 1, 2, 2, 1, 1]
        assert s.tolist() == [1, 2, 1, 2, 1, 2]
        assert all(len(t) == 0 for t in batching.canonical_tags(0, 0))

    def test_read_only_and_memoized(self):
        tags = batching.canonical_tags(3, 2)
        assert batching.canonical_tags(3, 2) is tags
        for t in tags:
            with pytest.raises(ValueError, match="read-only"):
                t[0] = 5

    def test_builders_share_the_canonical_arrays(self, rng):
        proto = batching.build_prototype_batch(rng.normal(size=(3, 2, 4)))
        aug = batching.build_augmented_batch(rng.normal(size=(4, 4)))
        merged = batching.merge_semi_batch(proto, aug)
        for rep, shape in ((proto, (3, 0)), (aug, (0, 2)), (merged, (3, 2))):
            for got, want in zip((rep.groups, rep.indices, rep.slots),
                                 batching.canonical_tags(*shape)):
                assert got is want


class TestBackpropToSources:
    def test_prototype_gradient_split(self):
        enc = np.random.default_rng(0).normal(size=(2, 3, 2))
        rep = batching.build_prototype_batch(enc)
        grad_z = np.arange(8, dtype=float).reshape(4, 2)
        out = batching.backprop_to_sources(rep, grad_z)
        assert out.shape == (6, 2)
        # query gradient passes through; each support gets half the prototype's
        assert np.array_equal(out[0], grad_z[0])
        assert np.allclose(out[1], 0.5 * grad_z[1])
        assert np.allclose(out[2], 0.5 * grad_z[1])

    def test_merged_offsets(self, rng):
        z0 = random_prototype_batch(rng, n=2, kp=2, d=3)
        z1 = random_augmented_batch(rng, n=2, d=3)
        merged = batching.merge_semi_batch(z0, z1)
        g = np.ones((merged.size, 3))
        out = batching.backprop_to_sources(merged, g)
        n0 = len(z0.source_entry)
        assert out.shape == (n0 + len(z1.source_entry), 3)
        assert np.all(out != 0)
        # unlabeled pool rows follow the labeled ones and feed shifted entries
        assert np.array_equal(merged.source_entry[:n0], z0.source_entry)
        assert np.array_equal(merged.source_entry[n0:], z1.source_entry + z0.size)

    def test_maps_shared_per_shape_and_read_only(self, rng):
        # A prototype batch's map depends only on (N, K'), an augmented
        # batch's only on N': batches of one shape share the arrays.
        pairs = [
            [batching.build_prototype_batch(rng.normal(size=(3, 4, 2))) for _ in range(2)],
            [batching.build_augmented_batch(rng.normal(size=(10, 2))) for _ in range(2)],
        ]
        for first, second in pairs:
            for name in ("source_entry", "source_coeff"):
                shared = getattr(first, name)
                assert getattr(second, name) is shared
                with pytest.raises(ValueError, match="read-only"):
                    shared[0] = 0
        other = batching.build_prototype_batch(rng.normal(size=(3, 3, 2)))
        assert other.source_coeff is not pairs[0][0].source_coeff
        assert other.source_coeff[1] == 0.5  # 1/(K'-1) for K' = 3

    def test_requires_sources(self):
        rep = batching.RepresentationBatch(np.zeros((2, 2)), np.zeros(2, int),
                                           np.ones(2, int), np.array([1, 2]), 1, 0)
        with pytest.raises(ValueError):
            batching.backprop_to_sources(rep, np.zeros((2, 2)))


class TestSourceMapAdjoint:
    """backprop_to_sources is the adjoint of the source map S (z = S @ pool):
    <g, z> must equal <S.T g, pool> for any entry gradient g."""

    def assert_adjoint(self, rng, rep, pool):
        g = rng.normal(size=rep.z.shape)
        back = batching.backprop_to_sources(rep, g)
        assert back.shape == pool.shape
        assert np.sum(g * rep.z) == pytest.approx(np.sum(back * pool), abs=1e-12)

    @pytest.mark.parametrize("kp", [2, 3, 5])
    def test_prototype(self, rng, kp):
        enc = rng.normal(size=(4, kp, 3))
        rep = batching.build_prototype_batch(enc)
        self.assert_adjoint(rng, rep, enc.reshape(4 * kp, 3))

    def test_augmented(self, rng):
        views = rng.normal(size=(8, 3))
        self.assert_adjoint(rng, batching.build_augmented_batch(views), views)

    def test_merged(self, rng):
        enc = rng.normal(size=(3, 3, 4))
        views = rng.normal(size=(4, 4))
        z0 = batching.build_prototype_batch(enc)
        z1 = batching.build_augmented_batch(views)
        pool = np.vstack([enc.reshape(9, 4), views])
        self.assert_adjoint(rng, batching.merge_semi_batch(z0, z1), pool)
