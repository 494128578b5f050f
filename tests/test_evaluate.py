import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gclkit import evaluate as ev
from gclkit.synth import LabeledDataset


class TestCosineScore:
    def test_identical(self):
        assert ev.cosine_score(np.array([2.0, 0.0]), np.array([5.0, 0.0])) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert ev.cosine_score(np.array([1.0, 0.0]), np.array([0.0, 3.0])) == pytest.approx(0.0)

    def test_hand_case(self):
        got = ev.cosine_score(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert got == pytest.approx(0.70710678, abs=1e-7)

    def test_zero_norm_policy(self):
        assert ev.cosine_score(np.zeros(3), np.ones(3)) == 0.0


class TestEer:
    def test_perfectly_separated(self):
        assert ev.eer([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]).eer == pytest.approx(0.0)

    def test_fully_interleaved(self):
        assert ev.eer([0.9, 0.2, 0.8, 0.1], [1, 1, 0, 0]).eer == pytest.approx(0.5)

    def test_shuffled_labels_near_half(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=4000)
        labels = rng.random(4000) < 0.5
        assert ev.eer(scores, labels).eer == pytest.approx(0.5, abs=0.05)

    def test_counts_reported(self):
        res = ev.eer([0.9, 0.8, 0.1], [1, 1, 0])
        assert res.n_target == 2 and res.n_nontarget == 1

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            ev.eer([0.1, 0.2], [1, 1])

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_increasing_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=80) + np.repeat([1.0, 0.0], 40)
        labels = np.repeat([True, False], 40)
        base = ev.eer(scores, labels).eer
        assert ev.eer(np.tanh(scores) * 5 + 2, labels).eer == pytest.approx(base, abs=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_label_swap_symmetry(self, seed):
        # flipping which class counts as "target" mirrors the score axis
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=60)
        labels = np.repeat([True, False], 30)
        base = ev.eer(scores, labels).eer
        swapped = ev.eer(-scores, ~labels).eer
        assert swapped == pytest.approx(base, abs=1e-12)

    def test_dominating_targets_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            tgt = rng.normal(1.5, 1.0, size=50)
            non = rng.normal(0.0, 1.0, size=50)
            res = ev.eer(np.concatenate([tgt, non]), np.repeat([True, False], 50))
            assert 0.0 <= res.eer <= 0.5

    def test_degraded_above_half_reported(self):
        # targets score lower than non-targets: EER over 0.5, not clamped
        res = ev.eer([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])
        assert res.eer > 0.5


def reference_eer(scores, labels):
    """The direct sweep: one pass over the scores per threshold, O(n^2)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    tgt = np.sort(scores[labels])
    non = np.sort(scores[~labels])
    thresholds = np.unique(scores)
    far = np.array([(non >= t).mean() for t in thresholds])
    frr = np.array([(tgt < t).mean() for t in thresholds])
    thresholds = np.append(thresholds, thresholds[-1] + 1.0)
    far = np.append(far, 0.0)
    frr = np.append(frr, 1.0)
    diff = far - frr
    idx = int(np.argmax(diff <= 0))
    if idx == 0:
        return ev.EerResult(float(far[0]), float(thresholds[0]), len(tgt), len(non))
    d0, d1 = diff[idx - 1], diff[idx]
    lam = 0.0 if d0 == d1 else d0 / (d0 - d1)
    eer_val = far[idx - 1] + lam * (far[idx] - far[idx - 1])
    thr = thresholds[idx - 1] + lam * (thresholds[idx] - thresholds[idx - 1])
    return ev.EerResult(float(eer_val), float(thr), len(tgt), len(non))


class TestEerAgainstReference:
    def test_random_cases_with_ties_match_exactly(self):
        rng = np.random.default_rng(17)
        for case in range(200):
            n = int(rng.integers(2, 300))
            # Coarse rounding makes ties within and across the two classes.
            decimals = int(rng.integers(0, 4))
            scores = np.round(rng.normal(size=n) + rng.normal(0.0, 2.0), decimals)
            labels = rng.random(n) < rng.uniform(0.1, 0.9)
            labels[0], labels[1] = True, False
            if case % 5 == 0:
                scores[labels] += rng.uniform(-1.0, 3.0)
            assert ev.eer(scores, labels) == reference_eer(scores, labels)

    def test_all_scores_tied(self):
        scores, labels = np.full(6, 0.25), np.array([1, 0, 1, 0, 0, 1], bool)
        assert ev.eer(scores, labels) == reference_eer(scores, labels)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ev.eer([0.9, bad, 0.1, 0.2, 0.5], [1, 1, 0, 0, 0])


def toy_split(n_speakers=5, per=4, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(n_speakers), per)
    return LabeledDataset(rng.normal(size=(n_speakers * per, 3)), labels)


class TestBuildTrials:
    def test_balance(self):
        trials = ev.build_trials(toy_split(), 10, np.random.default_rng(0))
        assert trials.labels.sum() == 5 and (~trials.labels).sum() == 5

    def test_labels_consistent_with_pairs(self):
        ds = toy_split()
        trials = ev.build_trials(ds, 40, np.random.default_rng(1))
        for (i, j), same in zip(trials.pairs, trials.labels):
            assert (ds.labels[i] == ds.labels[j]) == same
            assert i != j or not same  # target pairs use two distinct utterances

    def test_deterministic(self):
        ds = toy_split()
        a = ev.build_trials(ds, 20, np.random.default_rng(9))
        b = ev.build_trials(ds, 20, np.random.default_rng(9))
        assert np.array_equal(a.pairs, b.pairs) and np.array_equal(a.labels, b.labels)

    def test_needs_two_speakers(self):
        with pytest.raises(ValueError):
            ev.build_trials(toy_split(n_speakers=1), 4, np.random.default_rng(0))

    def test_empty_trialset_rejected(self):
        with pytest.raises(ValueError):
            ev.TrialSet(pairs=np.zeros((0, 2), int), labels=np.zeros(0, bool))


class TestScoreTrialsAndSerialization:
    def test_score_trials(self):
        emb = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        trials = ev.TrialSet(pairs=np.array([[0, 1], [0, 2]]),
                             labels=np.array([True, False]))
        scores, labels = ev.score_trials(trials, emb)
        assert scores[0] == pytest.approx(1.0) and scores[1] == pytest.approx(0.0)
        assert labels.dtype == bool

    def test_trials_round_trip(self, tmp_path):
        trials = ev.build_trials(toy_split(), 12, np.random.default_rng(2))
        ev.save_trials(tmp_path / "t.txt", trials)
        back = ev.load_trials(tmp_path / "t.txt", len(toy_split().labels))
        assert np.array_equal(back.pairs, trials.pairs)
        assert np.array_equal(back.labels, trials.labels)
