"""Verification-trial scoring and equal error rate.

EER is read off the FAR/FRR crossing of a full threshold sweep, with linear
interpolation between the two adjacent operating points, so it depends only
on score ranks (invariant under strictly increasing transforms).
"""

from dataclasses import dataclass

import numpy as np


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


def score_trials(trials, embeddings, scoring="cosine"):
    """Score each trial pair; returns (scores, labels)."""
    if scoring != "cosine":
        raise ValueError(f"unknown scoring {scoring!r}")
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
    """Balanced same/different-speaker pairs from a dataset split, by utterance id."""
    labels = np.asarray(dataset.labels)
    speakers = np.unique(labels)
    if len(speakers) < 2:
        raise ValueError("need at least 2 speakers for trials")
    by_speaker = {s: np.flatnonzero(labels == s) for s in speakers}
    n_target = n_pairs // 2
    n_non = n_pairs - n_target
    pairs = []
    flags = []
    for _ in range(n_target):
        s = rng.choice(speakers)
        while len(by_speaker[s]) < 2:
            s = rng.choice(speakers)
        i, j = rng.choice(by_speaker[s], size=2, replace=False)
        pairs.append((i, j))
        flags.append(True)
    for _ in range(n_non):
        s1, s2 = rng.choice(speakers, size=2, replace=False)
        pairs.append((rng.choice(by_speaker[s1]), rng.choice(by_speaker[s2])))
        flags.append(False)
    return TrialSet(pairs=np.array(pairs, dtype=int), labels=np.array(flags, dtype=bool))


def save_trials(path, trials):
    """One pair per line: `label idA idB` with label 1 = same speaker."""
    with open(path, "w") as fh:
        for (a, b), same in zip(trials.pairs, trials.labels):
            fh.write(f"{int(same)} {a} {b}\n")


def load_trials(path):
    rows = np.loadtxt(path, dtype=int, ndmin=2)
    return TrialSet(pairs=rows[:, 1:3], labels=rows[:, 0].astype(bool))
