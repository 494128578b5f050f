import numpy as np
import pytest

from gclkit import affinity as aff
from gclkit import batch as batching
from gclkit import loss as losses
from gclkit.verify import siamese_oracle, siamese_spec, triplet_oracle, triplet_spec

from conftest import random_prototype_batch


class TestSpecValidation:
    def test_unknown_psi(self):
        with pytest.raises(ValueError):
            losses.CompleteFormSpec(scorer=lambda z, zp, a: 0.0, psi="softmax")

    def test_negative_margin(self):
        with pytest.raises(ValueError):
            losses.CompleteFormSpec(scorer=lambda z, zp, a: 0.0, margin=-1.0)

    def test_ramp_margin_requires_cost(self):
        with pytest.raises(ValueError):
            losses.CompleteFormSpec(scorer=lambda z, zp, a: 0.0, psi="ramp-margin",
                                    orientation="reward")

    def test_bad_orientation(self):
        with pytest.raises(ValueError):
            losses.CompleteFormSpec(scorer=lambda z, zp, a: 0.0, orientation="up")


class TestReductions:
    def test_triplet(self, rng):
        for _ in range(10):
            rep = random_prototype_batch(rng, kp=2, scale=1.0)
            margin = float(rng.uniform(0.1, 2.0))
            got = losses.complete_form(rep, aff.type2_affinity(rep.n_labeled),
                                       triplet_spec(margin)).loss
            assert got == pytest.approx(triplet_oracle(rep, margin), abs=1e-10)

    def test_siamese(self, rng):
        for _ in range(10):
            rep = random_prototype_batch(rng, kp=2, scale=1.0)
            margin = float(rng.uniform(0.1, 2.0))
            got = losses.complete_form(rep, aff.type1_affinity(rep.n_labeled),
                                       siamese_spec(margin)).loss
            assert got == pytest.approx(siamese_oracle(rep, margin), abs=1e-10)

    def test_all_zero_affinity(self, rng):
        rep = random_prototype_batch(rng, n=2)
        m = aff.AffinityMatrix(np.zeros((4, 4)))
        report = losses.complete_form(rep, m, triplet_spec(0.5))
        assert report.loss == 0.0 and not report.active.any()


class TestGeneralAffinities:
    def test_real_valued_weights_accepted(self, rng):
        rep = random_prototype_batch(rng, n=2, kp=2, d=3)
        a = rng.normal(size=(4, 4))
        spec = losses.CompleteFormSpec(scorer=lambda z, zp, alpha: alpha * float(z @ zp))
        report = losses.complete_form(rep, aff.AffinityMatrix(a), spec)
        # anchors: every row with some nonzero entry
        want_active = (a != 0).any(axis=1)
        assert np.array_equal(report.active, want_active)

    def test_reward_orientation_negates(self, rng):
        rep = random_prototype_batch(rng, n=2, kp=2, d=3)
        m = aff.type4_affinity(2)
        scorer = lambda z, zp, alpha: alpha * float(z @ zp)
        cost = losses.complete_form(rep, m, losses.CompleteFormSpec(scorer=scorer)).loss
        reward = losses.complete_form(
            rep, m, losses.CompleteFormSpec(scorer=scorer, orientation="reward")).loss
        assert reward == -cost

    @pytest.mark.parametrize("ctor", [aff.type1_affinity, aff.type2_affinity,
                                      aff.type3_affinity, aff.type4_affinity])
    def test_int8_layout_matches_float_copy(self, rng, ctor):
        # The scorer sees each entry as a float: 300 * alpha would overflow an
        # int8 entry, and must give the same loss as on the float64 copy.
        rep = random_prototype_batch(rng, n=3, kp=2, d=3)
        m = ctor(3)
        assert m.a.dtype == np.int8
        for scorer in (lambda z, zp, alpha: alpha * 300,
                       lambda z, zp, alpha: alpha * float(z @ zp)):
            spec = losses.CompleteFormSpec(scorer=scorer)
            got = losses.complete_form(rep, m, spec)
            want = losses.complete_form(rep, aff.AffinityMatrix(m.a.astype(float)), spec)
            assert got.loss == want.loss
            assert np.array_equal(got.per_anchor, want.per_anchor)
            assert np.array_equal(got.active, want.active)

    def test_negative_log_psi(self):
        z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        rep = batching.RepresentationBatch(
            z=z, groups=np.zeros(4, int), indices=np.array([1, 1, 2, 2]),
            slots=np.array([1, 2, 1, 2]), n_labeled=2, n_unlabeled=0)
        a = np.zeros((4, 4))
        a[0, 1] = 1.0  # single anchor summing exp-similarities
        spec = losses.CompleteFormSpec(
            scorer=lambda zi, zj, alpha: float(np.exp(zi @ zj)), psi="negative-log")
        report = losses.complete_form(rep, aff.AffinityMatrix(a), spec)
        assert report.loss == pytest.approx(-1.0)  # -log(exp(1))
