import math

import numpy as np
import pytest

from gclkit import affinity as aff
from gclkit import batch as batching
from gclkit import loss as losses
from gclkit._core_py import ratio_terms
from gclkit.kernels import KernelParams

from conftest import random_augmented_batch, random_prototype_batch


def proto_batch_from_z(q, p):
    """Build a prototype-layout batch directly from slot-1/slot-2 embeddings."""
    q, p = np.asarray(q, float), np.asarray(p, float)
    encoded = np.stack([q, p], axis=1)  # K'=2: support == prototype
    return batching.build_prototype_batch(encoded)


class TestOracles:
    def test_episode_n1(self):
        rep = proto_batch_from_z([[0.0, 1.0]], [[2.0, 3.0]])
        assert losses.oracle_episode(rep) == pytest.approx(-1.0)

    def test_episode_hand_case(self):
        rep = proto_batch_from_z([[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]])
        want = -1.0 / (1.0 + math.exp(-1.0))
        assert losses.oracle_episode(rep) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(-0.7310585786, abs=1e-9)

    def test_episode_translation_invariance(self, rng):
        rep = random_prototype_batch(rng, n=4, d=3)
        shifted = proto_batch_from_z(rep.z[0::2] + 7.5, rep.z[1::2] + 7.5)
        assert losses.oracle_episode(shifted) == pytest.approx(
            losses.oracle_episode(rep), abs=1e-12)

    def test_ntxent_all_equal(self):
        samples = np.ones((2, 3))
        rep = batching.build_augmented_batch(samples, lambda x: x, lambda x: x, lambda x: x)
        params = KernelParams("cosine-temp", tau=0.5, proj=np.eye(3))
        # every pair has cosine 1, so each anchor's ratio is 1/3
        assert losses.oracle_ntxent(rep, params) == pytest.approx(-1.0 / 3.0)

    def test_ntxent_view_swap_invariance(self, rng):
        rep = random_augmented_batch(rng, n=3, d=4)
        params = KernelParams("cosine-temp", tau=0.5, proj=rng.normal(size=(4, 4)))
        swapped_z = rep.z.reshape(-1, 2, rep.dim)[:, ::-1].reshape(-1, rep.dim)
        swapped = batching.RepresentationBatch(
            z=swapped_z, groups=rep.groups, indices=rep.indices, slots=rep.slots,
            n_labeled=0, n_unlabeled=rep.n_unlabeled)
        assert losses.oracle_ntxent(swapped, params) == pytest.approx(
            losses.oracle_ntxent(rep, params), abs=1e-12)


class TestGclValues:
    def test_n1_type3_degenerate(self):
        rep = proto_batch_from_z([[1.0, 0.0]], [[0.0, 1.0]])
        report = losses.gcl(rep, aff.type3_affinity(1), KernelParams("sq-euclid"))
        assert report.loss == pytest.approx(-1.0, abs=1e-9)
        assert report.per_anchor[0] == pytest.approx(1.0, abs=1e-9)

    def test_matches_episode_oracle(self, rng):
        for _ in range(10):
            rep = random_prototype_batch(rng)
            got = losses.gcl(rep, aff.type3_affinity(rep.n_labeled),
                             KernelParams("sq-euclid")).loss
            assert got == pytest.approx(losses.oracle_episode(rep), abs=1e-10)

    def test_matches_ntxent_oracle(self, rng):
        for _ in range(10):
            rep = random_augmented_batch(rng)
            params = KernelParams("cosine-temp", tau=0.5,
                                  proj=rng.normal(size=(rep.dim, rep.dim)))
            got = losses.gcl(rep, aff.type4_affinity(rep.n_unlabeled), params).loss
            assert got == pytest.approx(losses.oracle_ntxent(rep, params), abs=1e-10)

    def test_ratio_bounds(self, rng):
        for _ in range(10):
            rep = random_prototype_batch(rng)
            m = aff.type4_affinity(rep.n_labeled)
            report = losses.gcl(rep, m, KernelParams("affine-cosine", gamma=5.0, beta=0.0))
            r = report.per_anchor[report.active]
            assert np.all(r > 0.0) and np.all(r < 1.0)

    def test_all_inactive_is_zero_with_flag(self, rng):
        rep = random_prototype_batch(rng, n=2)
        m = aff.AffinityMatrix(np.zeros((4, 4)), 2)
        report = losses.gcl(rep, m, KernelParams("sq-euclid"))
        assert report.loss == 0.0 and report.all_inactive
        report = losses.gcl_grad(rep, m, KernelParams("sq-euclid"))
        assert np.all(report.grad_z == 0.0)

    def test_fixed_2n_normalization_halves_type3(self, rng):
        # type3 has N active anchors out of 2N rows, so the fixed-2N
        # normalization is exactly half the active-count value
        rep = random_prototype_batch(rng, n=4)
        m = aff.type3_affinity(4)
        active = losses.gcl(rep, m, KernelParams("sq-euclid")).loss
        fixed = losses.gcl(rep, m, KernelParams("sq-euclid"),
                           losses.GclOptions(anchor_normalization="fixed-2n")).loss
        assert fixed == pytest.approx(0.5 * active, abs=1e-14)

    def test_negated_log_ratio_transform(self, rng):
        rep = random_prototype_batch(rng, n=3)
        m = aff.type3_affinity(3)
        opts = losses.GclOptions(ratio_transform="negated-log-ratio")
        report = losses.gcl(rep, m, KernelParams("sq-euclid"), opts)
        want = -np.mean(np.log(report.per_anchor[report.active]))
        assert report.loss == pytest.approx(want, abs=1e-12)
        assert report.loss > 0.0  # -log of ratios in (0,1)

    def test_verbatim_diagnostic(self, rng):
        rep = random_prototype_batch(rng, n=3)
        report = losses.gcl(rep, aff.type3_affinity(3), KernelParams("sq-euclid"))
        assert report.verbatim == pytest.approx(report.per_anchor.sum() / rep.size)
        assert report.verbatim > 0.0 > report.loss

    def test_stability_under_huge_offset(self, rng):
        rep = random_prototype_batch(rng, n=3, kp=2)
        m = aff.type4_affinity(3)
        base = losses.gcl(rep, m, KernelParams("affine-cosine", gamma=2.0, beta=0.0)).loss
        shifted = losses.gcl(rep, m, KernelParams("affine-cosine", gamma=2.0, beta=500.0)).loss
        assert shifted == pytest.approx(base, rel=1e-9)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_exponent_raises(self):
        rep = proto_batch_from_z([[1.0, 0.0]], [[0.0, 1.0]])
        params = KernelParams("affine-cosine", gamma=np.inf, beta=0.0)
        with pytest.raises(FloatingPointError):
            losses.gcl(rep, aff.type4_affinity(1), params)


class TestMonotonicity:
    def test_raising_positive_exponent_lowers_anchor_loss(self):
        # work at the ratio level: bump one positive pair's exponent only
        a = aff.type3_affinity(3).a
        rng = np.random.default_rng(5)
        e = rng.normal(size=(6, 6))
        e = 0.5 * (e + e.T)
        active = (a > 0).any(axis=1).astype(np.uint8)
        _, r0, _ = ratio_terms(e, a, active, 1e-12, False, 1.0 / 3)
        e2 = e.copy()
        e2[0, 1] += 0.3  # anchor 0's positive column
        _, r1, _ = ratio_terms(e2, a, active, 1e-12, False, 1.0 / 3)
        assert r1[0] > r0[0]  # higher ratio => lower (more negative) loss term
        assert np.allclose(r1[2:], r0[2:])


class TestSemi:
    def test_labeled_only_reduces_bitwise(self, rng):
        rep = random_prototype_batch(rng)
        params = KernelParams("affine-cosine", gamma=5.0, beta=-2.0)
        a = losses.gcl_semi(rep, kernel_params=params).loss
        b = losses.gcl(rep, aff.type4_affinity(rep.n_labeled), params).loss
        assert a == b

    def test_unlabeled_only_matches_ntxent_oracle(self, rng):
        rep = random_augmented_batch(rng, n=3, d=4)
        params = KernelParams("cosine-temp", tau=0.5, proj=rng.normal(size=(4, 4)))
        got = losses.gcl_semi(rep, kernel_params=params).loss
        assert got == pytest.approx(losses.oracle_ntxent(rep, params), abs=1e-10)

    def test_hand_mixed_batch_against_brute_force(self, rng):
        # N=1 labeled + N'=1 unlabeled in 2-D: sum the 4x4 ratio by hand
        lab = proto_batch_from_z([[1.0, 0.0]], [[0.5, 0.5]])
        unl = batching.build_augmented_batch(np.array([[0.0, 1.0]]),
                                             lambda x: x, lambda x: x + 0.25, lambda x: x)
        merged = batching.merge_semi_batch(lab, unl)
        params = KernelParams("affine-cosine", gamma=2.0, beta=-1.0)
        eps = 1e-12
        a = aff.semi_affinity(1, 1).a
        z = merged.z

        def cos(x, y):
            return float(x @ y / (np.linalg.norm(x) * np.linalg.norm(y)))

        total = 0.0
        for i in range(4):
            num = den = 0.0
            for j in range(4):
                if a[i, j] == 0.0:
                    continue
                s = math.exp(params.gamma * cos(z[i], z[j]) + params.beta)
                if a[i, j] > 0:
                    num += s
                den += s
            total += num / (den + eps)
        want = -total / 4.0
        got = losses.gcl_semi(merged, kernel_params=params).loss
        assert got == pytest.approx(want, abs=1e-12)

    def test_relaxed_variant_differs(self, rng):
        lab = random_prototype_batch(rng, n=2, d=3)
        unl = random_augmented_batch(rng, n=3, d=3)
        merged = batching.merge_semi_batch(lab, unl)
        params = KernelParams("affine-cosine", gamma=3.0, beta=0.0)
        strict = losses.gcl_semi(merged, kernel_params=params).loss
        relaxed = losses.gcl_semi(merged, kernel_params=params, relaxed_unlabeled=True).loss
        assert strict != relaxed


class TestOptionsValidation:
    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            losses.GclOptions(epsilon=0.0)

    def test_unknown_choices(self):
        with pytest.raises(ValueError):
            losses.GclOptions(anchor_normalization="sum")
        with pytest.raises(ValueError):
            losses.GclOptions(ratio_transform="identity")


class TestFiniteDiffHelpers:
    def test_quadratic_is_exact_to_h_squared(self):
        x = np.array([1.0, -2.0, 0.5])
        g = losses.finite_diff_grad(lambda v: float(v @ v), x, h=1e-4)
        assert np.allclose(g, 2 * x, atol=1e-7)

    def test_check_requires_positive_h(self):
        with pytest.raises(ValueError):
            losses.finite_diff_check(lambda v: 0.0, np.zeros(1), np.zeros(1), h=0.0)

    def test_max_rel_err_floor(self):
        assert losses.max_rel_err([0.0], [1e-12]) < 1e-3
