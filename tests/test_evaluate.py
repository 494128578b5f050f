import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gclkit import evaluate as ev
from gclkit.synth import LabeledDataset


def score_pair(a, b):
    """The score of one trial over the two-row embedding table ``[a, b]``."""
    trials = ev.TrialSet(pairs=np.array([[0, 1]]), labels=np.array([True]))
    return ev.score_trials(trials, np.array([a, b], dtype=float))[0][0]


def per_pair_scores(pairs, emb):
    """Each trial's cosine from its own two rows: the formula the blocks must match."""
    a, b = emb[pairs[:, 0]], emb[pairs[:, 1]]
    denom = np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sum(a * b, axis=-1) / denom
    return np.where(denom == 0.0, 0.0, s)


class TestScorePair:
    def test_identical(self):
        assert score_pair([2.0, 0.0], [5.0, 0.0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert score_pair([1.0, 0.0], [0.0, 3.0]) == pytest.approx(0.0)

    def test_hand_case(self):
        assert score_pair([1.0, 0.0], [1.0, 1.0]) == pytest.approx(0.70710678, abs=1e-7)

    def test_zero_norm_policy(self):
        assert score_pair(np.zeros(3), np.ones(3)) == 0.0


class TestScaleSafeScores:
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_scales_score_as_unscaled(self, scale):
        rng = np.random.default_rng(4)
        emb = rng.normal(size=(12, 16))
        pairs = rng.integers(0, 12, size=(50, 2))
        trials = ev.TrialSet(pairs=pairs, labels=np.arange(50) < 25)
        base, _ = ev.score_trials(trials, emb)
        scaled, _ = ev.score_trials(trials, emb * scale)
        assert np.all(np.isfinite(scaled))
        assert np.max(np.abs(scaled - base)) <= 1e-15

    def test_rows_of_different_scales(self):
        a, b = np.array([3.0, 4.0, 0.0]), np.array([1.0, 2.0, 2.0])
        assert score_pair(a * 1e200, b * 1e-200) == pytest.approx(11.0 / 15.0, abs=1e-15)

    def test_zero_rows_still_score_zero(self):
        emb = np.array([[0.0, 0.0], [1e-200, 1e-200], [0.0, 0.0], [1e200, 0.0]])
        trials = ev.TrialSet(pairs=np.array([[0, 1], [2, 3], [0, 2], [1, 3]]),
                             labels=np.array([True, False, True, False]))
        scores, _ = ev.score_trials(trials, emb)
        assert scores.tolist() == [0.0, 0.0, 0.0, pytest.approx(np.sqrt(0.5), abs=1e-15)]

    def test_non_finite_embedding_gives_non_finite_score(self):
        for bad in (np.nan, np.inf):
            assert not np.isfinite(score_pair([bad, 1.0], [1.0, 1.0]))


class TestBlockedScorer:
    @staticmethod
    def block_rows(d):
        return ev._BLOCK_BYTES // (8 * d)

    @pytest.mark.parametrize("offset", ["B-1", "B", "B+1", "3B+7"])
    def test_blocks_equal_per_pair_formula_bit_for_bit(self, offset):
        rng = np.random.default_rng(11)
        d = 16
        block = self.block_rows(d)
        n = {"B-1": block - 1, "B": block, "B+1": block + 1, "3B+7": 3 * block + 7}[offset]
        emb = rng.normal(size=(97, d)) * 10.0 ** rng.uniform(-3, 3, size=(97, 1))
        pairs = rng.integers(0, 97, size=(n, 2))
        scores, _ = ev.score_trials(ev.TrialSet(pairs, np.ones(n, bool)), emb)
        assert scores.tobytes() == per_pair_scores(pairs, emb).tobytes()

    @pytest.mark.parametrize("d", [1, 3, 16, 40])
    def test_zero_rows_and_repeated_pairs(self, d):
        rng = np.random.default_rng(d)
        n = 2 * self.block_rows(d) + 5
        emb = rng.normal(size=(30, d))
        emb[[0, 7, 29]] = 0.0
        pairs = rng.integers(0, 30, size=(n, 2))
        pairs[::3] = pairs[1]  # one pair repeated across every block
        pairs[1::7, 1] = pairs[1::7, 0]  # a row against itself
        pairs[2::11] = [0, 7]  # two zero rows
        scores, _ = ev.score_trials(ev.TrialSet(pairs, np.ones(n, bool)), emb)
        assert scores.tobytes() == per_pair_scores(pairs, emb).tobytes()
        assert np.all(scores[2::11] == 0.0)

    def test_ids_out_of_range_rejected(self):
        emb = np.ones((3, 2))
        for bad in ([[0, 3]], [[-1, 0]]):
            trials = ev.TrialSet(pairs=np.array(bad), labels=np.array([True]))
            with pytest.raises(ValueError, match=r"\[0, 3\)"):
                ev.score_trials(trials, emb)


class TestInputChecks:
    @pytest.mark.parametrize("pairs", [
        np.array([0, 1, 2, 3]),  # 1-D
        np.zeros((2, 3), int),  # three ids per pair
        np.zeros((2, 2, 1), int),
        np.array([[0.0, 1.0], [1.0, 2.0]]),  # not integers
        [[0, 1], [1, 2]],  # not an array
    ])
    def test_pairs_not_an_n_by_2_integer_array_rejected(self, pairs):
        with pytest.raises(ValueError, match=r"\(n, 2\) integer array"):
            ev.TrialSet(pairs=pairs, labels=np.ones(2, bool))

    @pytest.mark.parametrize("n_labels", [1, 3])
    def test_labels_of_another_length_rejected(self, n_labels):
        with pytest.raises(ValueError, match=f"{n_labels} trial labels for 2 pairs"):
            ev.TrialSet(pairs=np.array([[0, 1], [1, 2]]), labels=np.ones(n_labels, bool))

    @pytest.mark.parametrize("labels, first_bad", [
        (np.array([1, 2]), "label 1 is 2"),
        (np.array([0.5, 1.0]), "label 0 is 0.5"),
        (np.array([0, -1]), "label 1 is -1"),
        (np.array([-1.0, 0.0]), "label 0 is -1.0"),
        (np.array(["1", "0"]), "label 0 is '1'"),
    ])
    def test_labels_other_than_booleans_or_0_and_1_rejected(self, labels, first_bad):
        with pytest.raises(ValueError, match=f"booleans or the integers 0 and 1: {first_bad}$"):
            ev.TrialSet(pairs=np.array([[0, 1], [1, 2]]), labels=labels)

    def test_labels_not_1d_rejected(self):
        with pytest.raises(ValueError, match=r"1-D array, got shape \(2, 1\)"):
            ev.TrialSet(pairs=np.array([[0, 1], [1, 2]]), labels=np.ones((2, 1), bool))

    @pytest.mark.parametrize("labels", [np.array([True, False]), np.array([1, 0]),
                                        np.array([1, 0], np.uint8), [1, 0]])
    def test_boolean_and_0_1_labels_accepted_and_round_trip(self, tmp_path, labels):
        trials = ev.TrialSet(pairs=np.array([[0, 1], [1, 2]]), labels=labels)
        ev.save_trials(tmp_path / "t.txt", trials)
        back = ev.load_trials(tmp_path / "t.txt", 3)
        assert np.array_equal(back.pairs, trials.pairs)
        assert back.labels.tolist() == [True, False]

    def test_eer_length_mismatch_names_both_lengths(self):
        with pytest.raises(ValueError, match="3 scores and 2 labels"):
            ev.eer([0.1, 0.2, 0.3], [True, False])


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

    @pytest.mark.parametrize("n", [700, 1500, 3000, 5000])
    def test_long_lists_match_exactly(self, n):
        # Long enough that the bisection takes 10-13 probes.
        rng = np.random.default_rng(n)
        for decimals in (1, 2, 6):
            scores = np.round(rng.normal(size=n), decimals)
            labels = rng.random(n) < 0.5
            scores[labels] += 0.8
            assert ev.eer(scores, labels) == reference_eer(scores, labels)

    def test_all_scores_tied(self):
        scores, labels = np.full(6, 0.25), np.array([1, 0, 1, 0, 0, 1], bool)
        assert ev.eer(scores, labels) == reference_eer(scores, labels)

    def test_crossing_at_the_first_point_it_can_be(self):
        # Point 0 (the lowest score) accepts every trial, so far - frr is 1
        # there; the crossing is at point 1 at the earliest.
        for scores, labels in (([0.1, 0.9], [True, False]), ([0.1, 0.1, 0.9], [1, 1, 0])):
            res = ev.eer(scores, labels)
            assert res == reference_eer(scores, labels)
            assert res.threshold == 0.9 and res.eer == 1.0

    @pytest.mark.parametrize("scores, labels", [
        ([0.5, 0.5], [True, False]),  # all tied: U = 1
        ([0.2, 0.9, 0.9, 0.9], [False, True, True, False]),  # a non-target at the top
    ])
    def test_crossing_at_the_accept_nothing_point(self, scores, labels):
        res = ev.eer(scores, labels)
        assert res == reference_eer(scores, labels)
        assert res.threshold > max(scores)

    def test_one_target_one_non_target(self):
        for scores in ([0.9, 0.1], [0.1, 0.9], [0.3, 0.3]):
            assert ev.eer(scores, [True, False]) == reference_eer(scores, [True, False])

    @given(data=st.lists(st.tuples(st.integers(0, 4), st.booleans()), min_size=2, max_size=60),
           scale=st.sampled_from([1.0, 0.1, 1e-9]))
    @settings(max_examples=200, deadline=None)
    def test_tie_heavy_lists_match_reference(self, data, scale):
        scores = np.array([s for s, _ in data], dtype=float) * scale
        labels = np.array([lab for _, lab in data])
        labels[0], labels[1] = True, False
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
