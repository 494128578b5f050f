"""Gradient correctness beyond the main verification suite: the log-ratio
transform, the epsilon pathway, gradient flow through prototypes, and the
degenerate cases the suite does not sample."""

import zlib

import numpy as np
import pytest

from gclkit import affinity as aff
from gclkit import batch as batching
from gclkit import loss as losses
from gclkit.kernels import KernelParams
from gclkit.verify import _grad_case, gradient_case_error

from conftest import random_prototype_batch


class TestSuiteCases:
    @pytest.mark.parametrize("kind", ["sq-euclid", "cosine-temp", "affine-cosine"])
    @pytest.mark.parametrize("affinity_name", ["type1", "type2", "type3", "type4"])
    def test_each_combination(self, kind, affinity_name):
        rng = np.random.default_rng(zlib.crc32(f"{kind}/{affinity_name}".encode()))
        err = gradient_case_error(*_grad_case(rng, kind, affinity_name))
        assert err < 1e-4

    @pytest.mark.parametrize("kind", ["sq-euclid", "cosine-temp"])
    def test_log_transform(self, kind):
        # -log(r) can exceed 1 in magnitude, so a few ulps of roundoff in the
        # central differences already reach ~1e-11 against the 1e-8 floor;
        # allow 1e-3 here instead of the suite's 1e-4. The affine-cosine kind
        # is excluded because its beta gradient is epsilon-sized, which under
        # this transform is pure measurement noise (covered by the
        # large-epsilon test below instead).
        rng = np.random.default_rng(77)
        for _ in range(10):
            case = _grad_case(rng, kind, "type3", transform="negated-log-ratio")
            assert gradient_case_error(*case) < 1e-3


class TestEpsilonPathway:
    def test_large_epsilon_gradient(self, rng):
        # With epsilon big enough to matter, its contribution to the gradient
        # must still match finite differences (beta's gradient in particular
        # exists only through the epsilon term).
        rep = random_prototype_batch(rng, n=3, kp=2, d=4, scale=1.0)
        m = aff.type3_affinity(3)
        params = KernelParams("affine-cosine", gamma=2.0, beta=0.0)
        options = losses.GclOptions(epsilon=0.05)
        report = losses.gcl_grad(rep, m, params, options)

        def f(flat):
            rep2 = batching.RepresentationBatch(
                z=flat.reshape(rep.z.shape), groups=rep.groups, indices=rep.indices,
                slots=rep.slots, n_labeled=rep.n_labeled, n_unlabeled=rep.n_unlabeled)
            return losses.gcl(rep2, m, params, options).loss

        assert losses.finite_diff_check(f, report.grad_z.ravel(), rep.z.ravel()) < 1e-4

        def f_beta(v):
            p2 = KernelParams("affine-cosine", gamma=2.0, beta=float(v[0]))
            return losses.gcl(rep, m, p2, options).loss

        got = np.atleast_1d(report.grad_kernel["beta"])
        assert losses.finite_diff_check(f_beta, got, np.array([0.0])) < 1e-4
        assert abs(report.grad_kernel["beta"]) > 1e-6  # epsilon makes beta matter


class TestStructuralCases:
    def test_isolated_entry_gets_zero_gradient(self, rng):
        # an entry that appears in no nonzero row or column of the affinity
        # contributes nothing to the loss, hence zero gradient
        rep = random_prototype_batch(rng, n=3, kp=2, d=3)
        a = aff.type3_affinity(3).a.copy()
        a[:, 3] = 0.0  # cut entry 3 out of every anchor row (it anchors nothing)
        m = aff.AffinityMatrix(a)
        report = losses.gcl_grad(rep, m, KernelParams("sq-euclid"))
        assert np.all(report.grad_z[3] == 0.0)
        assert np.any(report.grad_z[1] != 0.0)

    def test_saturated_log_ratio_has_small_gradient(self):
        # positives identical, negatives far away: ratios ~1, -log(r) ~ 0,
        # and the log-form gradient vanishes at saturation
        q = np.array([[1.0, 0.0], [0.0, 1.0]])
        encoded = np.stack([q, q], axis=1) * 50.0
        rep = batching.build_prototype_batch(encoded)
        opts = losses.GclOptions(ratio_transform="negated-log-ratio")
        report = losses.gcl_grad(rep, aff.type3_affinity(2), KernelParams("sq-euclid"), opts)
        assert abs(report.loss) < 1e-6
        assert float(np.linalg.norm(report.grad_z)) < 1e-3

    def test_gradient_flows_through_prototypes(self, rng):
        # differentiate w.r.t. the raw encodings (through the prototype mean)
        encoded = rng.normal(0.0, 0.6, size=(3, 3, 4))
        m = aff.type3_affinity(3)
        params = KernelParams("affine-cosine", gamma=2.0, beta=-1.0)

        def f(flat):
            rep = batching.build_prototype_batch(flat.reshape(encoded.shape))
            return losses.gcl(rep, m, params).loss

        rep = batching.build_prototype_batch(encoded)
        report = losses.gcl_grad(rep, m, params)
        grad_enc = batching.backprop_to_sources(rep, report.grad_z)
        assert losses.finite_diff_check(f, grad_enc.ravel(), encoded.ravel()) < 1e-4
