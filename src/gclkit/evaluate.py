"""Verification-trial scoring and equal error rate.

``score_trials`` takes one norm per utterance and forms the dot products in
blocks of trials, gathered into two reused buffers of about 256 KiB that stay
in cache, where a gather of the whole list would make (n, D) temporaries.
Every score is still the per-pair ``sum(a * b) / (|a| |b|)``, bit for bit.
Each embedding row is first scaled by a power of two (exact), so scores stay
finite and correct over the whole range of float64.

EER is read off the FAR/FRR crossing, found by bisection over the thresholds
(every distinct score plus an accept-nothing point; ``far - frr`` never rises
with the threshold), with linear interpolation between the two adjacent
operating points, so it depends only on score ranks (invariant under strictly
increasing transforms).
"""

from dataclasses import dataclass

import numpy as np

from . import _replay
from .records import Records

# Bytes of embedding rows per gathered block: two such buffers stay in cache.
_BLOCK_BYTES = 256 * 1024


@dataclass(frozen=True)
class TrialSet:
    """Verification pairs as indices into an utterance table."""

    pairs: np.ndarray  # (n, 2) int ids
    labels: np.ndarray  # (n,) bool, True = same speaker

    def __post_init__(self):
        pairs = self.pairs
        if not isinstance(pairs, np.ndarray):
            raise ValueError("trial pairs must be an (n, 2) integer array, "
                             f"got {type(pairs).__name__}")
        if pairs.dtype.kind not in "iu" or pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"trial pairs must be an (n, 2) integer array, got a {pairs.dtype} "
                             f"array of shape {pairs.shape}")
        if len(pairs) == 0:
            raise ValueError("trial set is empty")
        labels = np.asarray(self.labels)
        if labels.ndim != 1:
            raise ValueError(f"trial labels must be a 1-D array, got shape {labels.shape}")
        if len(labels) != len(pairs):
            raise ValueError(f"{len(labels)} trial labels for {len(pairs)} pairs")
        bad = np.flatnonzero((labels != 0) & (labels != 1)) if labels.dtype.kind in "biu" else [0]
        if len(bad):
            raise ValueError("trial labels must be booleans or the integers 0 and 1: "
                             f"label {bad[0]} is {labels[bad[0]].item()!r}")


@dataclass(frozen=True)
class EerResult:
    eer: float
    threshold: float
    n_target: int
    n_nontarget: int


def score_trials(trials, embeddings):
    """Cosine-score each trial pair; returns (scores, labels).

    A pair with a zero embedding scores 0.
    """
    emb = np.asarray(embeddings, dtype=float)
    pairs = trials.pairs
    if pairs.min() < 0 or pairs.max() >= len(emb):
        raise ValueError(f"trial ids must lie in [0, {len(emb)}) for {len(emb)} embeddings, "
                         f"got {pairs.min()} to {pairs.max()}")
    # Scale each row by a power of two, which is exact, to a largest magnitude
    # in [0.5, 1): products and squares neither overflow nor underflow, and
    # every other score keeps its bits. The largest magnitudes are reduced
    # over the rows of the transposed table; a reduction along each short
    # row of ``emb`` costs about three times as much.
    _, exponent = np.frexp(np.abs(emb.T, order="C").max(axis=0))
    emb = np.ldexp(emb, -exponent[:, None])
    norms = np.linalg.norm(emb, axis=-1)
    # The ids are checked above, so the gathers skip numpy's bounds check
    # (mode="raise" would buffer every output).
    first, second = pairs[:, 0], pairs[:, 1]
    denom = np.take(norms, first, mode="clip") * np.take(norms, second, mode="clip")
    dots = np.empty(len(pairs))
    rows = max(1, _BLOCK_BYTES // (emb.shape[-1] * emb.itemsize))
    a = np.empty((min(rows, len(pairs)), emb.shape[-1]))
    b = np.empty_like(a)
    for start in range(0, len(pairs), rows):
        stop = min(start + rows, len(pairs))
        ab, bb = a[:stop - start], b[:stop - start]
        np.take(emb, first[start:stop], axis=0, out=ab, mode="clip")
        np.take(emb, second[start:stop], axis=0, out=bb, mode="clip")
        np.sum(np.multiply(ab, bb, out=ab), axis=-1, out=dots[start:stop])
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = dots / denom
    return np.where(denom == 0.0, 0.0, scores), np.asarray(trials.labels, dtype=bool)


def eer(scores, labels):
    """Equal error rate of same/different-speaker scores (higher = more similar)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    if len(scores) != len(labels):
        raise ValueError(f"EER needs one label per score, got {len(scores)} scores "
                         f"and {len(labels)} labels")
    if not np.all(np.isfinite(scores)):
        raise ValueError("EER needs finite scores")
    tgt = np.sort(scores[labels])
    non = np.sort(scores[~labels])
    if len(tgt) == 0 or len(non) == 0:
        raise ValueError("EER needs both target and non-target trials")

    # Operating points: accept if score >= threshold, thresholds at every
    # score, then the accept-nothing point at index U (far 0, frr 1).
    thresholds = np.unique(scores)
    n_tgt, n_non, top = len(tgt), len(non), len(thresholds)

    def point(i):
        """(far, frr, threshold) of operating point i, counted by binary search."""
        if i == top:
            return 0.0, 1.0, float(thresholds[-1]) + 1.0
        t = thresholds[i]
        return ((n_non - int(non.searchsorted(t))) / n_non,
                int(tgt.searchsorted(t)) / n_tgt, float(t))

    # far - frr never rises with i. It is 1 at point 0, the lowest score,
    # which accepts every trial, and -1 at U: bisect over [1, U] for the
    # first point where it is <= 0.
    lo, hi = 1, top
    while lo < hi:
        mid = (lo + hi) // 2
        far, frr, _ = point(mid)
        if far - frr <= 0:
            hi = mid
        else:
            lo = mid + 1
    far1, frr1, thr1 = point(lo)
    far0, frr0, thr0 = point(lo - 1)
    d0, d1 = far0 - frr0, far1 - frr1
    lam = 0.0 if d0 == d1 else d0 / (d0 - d1)
    return EerResult(far0 + lam * (far1 - far0), thr0 + lam * (thr1 - thr0), n_tgt, n_non)


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

    With at least 3 speakers of at least 3 utterances, one bulk draw replays
    them (see ``_replay``); the loop runs where the word count depends on the
    data, or where a word is one the bounded draw may reject.
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
    s, reject_s = _replay.lemire(target[:, 0], n)
    c = counts[s]
    draws, reject_c = _replay.lemire(target[:, 1:], _replay.choice_ranges(c, 2))
    i, j = _replay.choice(draws.T, c, 2)
    draws, reject_n = _replay.lemire(other[:, :3], _replay.choice_ranges(n, 2))
    s1, s2 = _replay.choice(draws.T, n, 2)
    u, reject_u = _replay.lemire(other[:, 3:], np.stack([counts[s1], counts[s2]], 1))
    if reject_s or reject_c or reject_n or reject_u:
        rng.bit_generator.state = saved
        return _trial_loop(counts, starts, n_target, n_non, rng)
    return np.stack([np.concatenate([starts[s] + i, starts[s1] + u[:, 0]]),
                     np.concatenate([starts[s] + j, starts[s2] + u[:, 1]])], 1)


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
