"""Verification-trial scoring and equal error rate.

EER is read off the FAR/FRR crossing of a full threshold sweep, with linear
interpolation between the two adjacent operating points, so it depends only
on score ranks (invariant under strictly increasing transforms).
"""

from dataclasses import dataclass

import numpy as np

from .batch import _lemire_draws
from .records import Records


@dataclass(frozen=True)
class TrialSet:
    """Verification pairs as indices into an utterance table."""

    pairs: np.ndarray  # (n, 2) int ids
    labels: np.ndarray  # (n,) bool, True = same speaker

    def __post_init__(self):
        if len(self.pairs) == 0:
            raise ValueError("trial set is empty")


@dataclass(frozen=True)
class EerResult:
    eer: float
    threshold: float
    n_target: int
    n_nontarget: int


def cosine_score(a, b):
    na = np.linalg.norm(a, axis=-1)
    nb = np.linalg.norm(b, axis=-1)
    denom = na * nb
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sum(a * b, axis=-1) / denom
    return np.where(denom == 0.0, 0.0, s)


def score_trials(trials, embeddings):
    """Cosine-score each trial pair; returns (scores, labels)."""
    emb = np.asarray(embeddings, dtype=float)
    a = emb[trials.pairs[:, 0]]
    b = emb[trials.pairs[:, 1]]
    return cosine_score(a, b), np.asarray(trials.labels, dtype=bool)


def eer(scores, labels):
    """Equal error rate of same/different-speaker scores (higher = more similar)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    if not np.all(np.isfinite(scores)):
        raise ValueError("EER needs finite scores")
    tgt = np.sort(scores[labels])
    non = np.sort(scores[~labels])
    if len(tgt) == 0 or len(non) == 0:
        raise ValueError("EER needs both target and non-target trials")

    # Operating points: accept if score >= threshold, thresholds at every score.
    # The counts below each threshold come from binary search over the sorted
    # scores: O(n log n) in all.
    thresholds = np.unique(scores)
    far = (len(non) - np.searchsorted(non, thresholds, side="left")) / len(non)
    frr = np.searchsorted(tgt, thresholds, side="left") / len(tgt)
    # Append the accept-nothing endpoint.
    thresholds = np.append(thresholds, thresholds[-1] + 1.0)
    far = np.append(far, 0.0)
    frr = np.append(frr, 1.0)

    diff = far - frr  # decreasing from >=0 to <=0
    idx = int(np.argmax(diff <= 0))
    if idx == 0:
        return EerResult(float(far[0]), float(thresholds[0]), len(tgt), len(non))
    d0, d1 = diff[idx - 1], diff[idx]
    lam = 0.0 if d0 == d1 else d0 / (d0 - d1)
    eer_val = far[idx - 1] + lam * (far[idx] - far[idx - 1])
    thr = thresholds[idx - 1] + lam * (thresholds[idx] - thresholds[idx - 1])
    return EerResult(float(eer_val), float(thr), len(tgt), len(non))


def build_trials(dataset, n_pairs, rng):
    """Balanced same/different-speaker pairs from a ``LabeledDataset``, by utterance id.

    The first ``n_pairs // 2`` pairs are target pairs: two distinct
    utterances of one speaker drawn among those with at least two. The pairs
    and the final state of ``rng`` are those of ``_trial_loop``'s draws, trial
    by trial: for a target trial ``rng.integers(0, n_speakers)`` (drawn again
    while that speaker has fewer than 2 utterances), then
    ``rng.choice(count, 2, replace=False)``; for a non-target trial
    ``rng.choice(n_speakers, 2, replace=False)``, then one
    ``rng.integers(0, count)`` per chosen speaker.

    Each of those draws over r values is Lemire's ``(w * r) >> 32`` of one
    32-bit word w (see ``batch._choice_rows``), so with at least 3 speakers
    and at least 3 utterances per speaker every trial takes a fixed set of
    words, and one bulk draw covers the whole list. A target trial takes 4:
    the speaker over n_speakers, Floyd's two utterance draws over count - 1
    and count, and the shuffle's over 2. A non-target trial takes 5: Floyd's
    two speaker draws over n_speakers - 1 and n_speakers, the shuffle's over
    2, and one utterance over each chosen speaker's count. The loop runs
    instead where the number of words depends on the data (fewer speakers or
    utterances), and, with the state restored, where a word is one Lemire's
    draw may reject.
    """
    speakers, counts, order, starts = dataset.class_index
    if len(speakers) < 2:
        raise ValueError("need at least 2 speakers for trials")
    n_target = n_pairs // 2
    if n_target and counts.max() < 2:
        raise ValueError("target trials need a speaker with at least 2 utterances")
    if n_pairs < 1:
        raise ValueError("trial set is empty")
    positions = _trial_positions(counts, starts, n_target, n_pairs - n_target, rng)
    return TrialSet(pairs=order[positions], labels=np.arange(n_pairs) < n_target)


def _trial_positions(counts, starts, n_target, n_non, rng):
    """The (n_target + n_non, 2) positions in the class index's ``order`` that
    ``_trial_loop`` draws, decoded from one bulk draw where that is exact."""
    n = len(counts)
    if n < 3 or counts.min() < 3:
        return _trial_loop(counts, starts, n_target, n_non, rng)
    saved = rng.bit_generator.state
    words = rng.integers(0, 2**32, size=4 * n_target + 5 * n_non, dtype=np.uint32)
    target, other = words[:4 * n_target].reshape(-1, 4), words[4 * n_target:].reshape(-1, 5)
    s, reject_s = _lemire_draws(target[:, 0], n)
    c = counts[s]
    draws, reject_c = _lemire_draws(target[:, 1:], np.stack([c - 1, c, np.full_like(c, 2)], 1))
    i, j = _choice_pair(*draws.T, c)
    draws, reject_n = _lemire_draws(other[:, :3], [n - 1, n, 2])
    s1, s2 = _choice_pair(*draws.T, n)
    u, reject_u = _lemire_draws(other[:, 3:], np.stack([counts[s1], counts[s2]], 1))
    if reject_s or reject_c or reject_n or reject_u:
        rng.bit_generator.state = saved
        return _trial_loop(counts, starts, n_target, n_non, rng)
    return np.stack([np.concatenate([starts[s] + i, starts[s1] + u[:, 0]]),
                     np.concatenate([starts[s] + j, starts[s2] + u[:, 1]])], 1)


def _choice_pair(first, second, swap, population):
    """``rng.choice(population, 2, replace=False)`` from its three draws: Floyd's
    over population - 1 and population (a value already taken becomes
    population - 1), then the shuffle's over 2 (a 0 swaps the two)."""
    second = np.where(second == first, population - 1, second)
    return np.where(swap == 0, second, first), np.where(swap == 0, first, second)


def _trial_loop(counts, starts, n_target, n_non, rng):
    """The positions of ``_trial_positions``, drawn trial by trial."""
    n_speakers = len(counts)
    counts, starts = counts.tolist(), starts.tolist()
    # rng.integers(0, n) is the stream of rng.choice(n).
    pairs = []
    for _ in range(n_target):
        s = rng.integers(0, n_speakers)
        while counts[s] < 2:
            s = rng.integers(0, n_speakers)
        i, j = rng.choice(counts[s], size=2, replace=False).tolist()
        pairs.append((starts[s] + i, starts[s] + j))
    for _ in range(n_non):
        s1, s2 = rng.choice(n_speakers, size=2, replace=False).tolist()
        pairs.append((starts[s1] + rng.integers(0, counts[s1]),
                      starts[s2] + rng.integers(0, counts[s2])))
    return np.array(pairs, dtype=int)


def save_trials(path, trials):
    """One pair per line: `label idA idB` with label 1 = same speaker."""
    with open(path, "w") as fh:
        for (a, b), same in zip(trials.pairs, trials.labels):
            fh.write(f"{int(same)} {a} {b}\n")


def load_trials(path, n_utterances):
    """The trials of a ``save_trials`` file, by id into ``n_utterances`` utterances;
    a record that is not a label of 0 or 1 and two ids below ``n_utterances``,
    or a file of none, is a ValueError naming the line."""
    expected = f"expected 'label idA idB', a label of 0 or 1 and ids from 0 to {n_utterances - 1}"
    rows = []
    records = Records(path)
    for number, fields, text in records:
        try:
            label, a, b = map(int, fields)
            valid = label in (0, 1) and 0 <= min(a, b) and max(a, b) < n_utterances
        except ValueError:
            valid = False
        if not valid:
            raise records.error(number, expected, text)
        rows.append((a, b, label))
    if not rows:
        raise records.error(records.end, expected, None)
    rows = np.array(rows, dtype=int)
    return TrialSet(pairs=rows[:, :2], labels=rows[:, 2].astype(bool))
