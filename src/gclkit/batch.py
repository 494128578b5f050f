"""Representation-batch construction.

A representation batch is a flat list of embeddings tagged with
(group, index, slot): group 0 = labeled, 1 = unlabeled; index is the 1-based
class/sample index within its group; slot is the view index (1 = query/first
view, 2 = prototype/second view). Entries are stored in canonical flattened
order: all labeled entries sorted by (index, slot), then all unlabeled ones.
That flattening is what lets the loss treat every affinity tensor as a plain
square matrix, so it is the one rule the tags obey: a batch whose tags differ
from ``canonical_tags(N, N')`` anywhere is rejected, and every builder hands
out those shared read-only arrays.

Batches built from encoder outputs also carry a source map over the encoding
pool, the rows that were encoded to form the batch. Every pool row feeds
exactly one entry (a query, a support or a view), so the map is two arrays
indexed by pool row: ``source_entry[r]`` is the entry row ``r`` feeds and
``source_coeff[r]`` its weight in that entry, e.g. 1/(K'-1) for a support
averaged into a prototype. Together they are the sparse matrix S with
``z = S @ pool``, and the loss gradient on the pool is ``S.T @ grad_z``. A
prototype batch's map depends only on (N, K') and an augmented batch's only
on N', so every batch of one shape shares read-only arrays.

A training step encodes one pool, the labeled N*K' rows and then the 2N'
views, and builds both batches from slices of the output: the merged map
covers the whole pool in order, for one encoder backward pass.

The labeled rows come from two-step sampling: one ``rng.choice`` of N
classes, then K' rows of each. The second step's stream is one
``rng.choice(count, K', replace=False)`` per class, replayed from one bulk
draw of words (see ``_replay``) where that is exact.
"""

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import _replay


class CapacityError(ValueError):
    """Mini-batch request exceeds what the dataset can supply."""


@dataclass(frozen=True)
class LabeledMiniBatch:
    """N classes x K samples of raw feature vectors."""

    samples: np.ndarray  # (N, K, F)
    labels: np.ndarray  # (N,)


@dataclass(frozen=True)
class RepresentationBatch:
    z: np.ndarray  # (2*(n_labeled + n_unlabeled), D)
    groups: np.ndarray  # (M,) int, 0 labeled / 1 unlabeled
    indices: np.ndarray  # (M,) int, 1-based within group
    slots: np.ndarray  # (M,) int, 1 or 2
    n_labeled: int
    n_unlabeled: int
    # Source map, one element per encoding-pool row (None without a pool):
    source_entry: np.ndarray = field(default=None, repr=False)  # (R,) int entry fed
    source_coeff: np.ndarray = field(default=None, repr=False)  # (R,) float weight

    def __post_init__(self):
        m = self.z.shape[0]
        if m != 2 * (self.n_labeled + self.n_unlabeled):
            raise ValueError("entry count must be 2*(N + N')")
        if not np.all(np.isfinite(self.z)):
            raise ValueError("non-finite embedding values")
        tags = (self.groups, self.indices, self.slots)
        if any(len(t) != m for t in tags):
            raise ValueError(f"need {m} (group, index, slot) tags, got "
                             f"{', '.join(str(len(t)) for t in tags)}")
        canonical = canonical_tags(self.n_labeled, self.n_unlabeled)
        wrong = np.zeros(m, dtype=bool)
        for got, want in zip(tags, canonical):
            wrong |= got != want
        if wrong.any():
            k = np.argmax(wrong)  # the first differing entry in batch order
            raise ValueError(
                f"tags must follow canonical order: entry {k} is {_tag(tags, k)}, "
                f"canonical order puts {_tag(canonical, k)} there")

    @property
    def size(self):
        return self.z.shape[0]

    @property
    def dim(self):
        return self.z.shape[1]


def _tag(tags, k):
    g, i, s = (int(t[k]) for t in tags)
    return f"(group={g}, index={i}, slot={s})"


def _read_only(*arrays):
    for x in arrays:
        x.flags.writeable = False
    return arrays


@cache
def canonical_tags(n_labeled, n_unlabeled):
    """Read-only (groups, indices, slots) of a batch in canonical flattened order.

    Memoized per batch shape, so every batch of one shape shares the arrays.
    """
    groups = np.repeat([0, 1], [2 * n_labeled, 2 * n_unlabeled])
    indices = np.concatenate([np.repeat(np.arange(1, n + 1), 2)
                              for n in (n_labeled, n_unlabeled)])
    slots = np.tile([1, 2], n_labeled + n_unlabeled)
    return _read_only(groups, indices, slots)


@cache
def _prototype_sources(n, kp):
    """Read-only source map of a prototype batch: pool row i*K' + j feeds
    the query (j = 0) or the prototype of class i."""
    support = np.arange(kp) > 0
    return _read_only((2 * np.arange(n)[:, None] + support).ravel(),
                      np.tile(np.where(support, 1.0 / (kp - 1), 1.0), n))


@cache
def _augmented_sources(n):
    """Read-only source map of an augmented batch: view r is entry r."""
    return _read_only(np.arange(2 * n), np.ones(2 * n))


def two_step_sample(dataset, n, k, rng):
    """Sample N distinct classes, then K samples per class without replacement.

    ``dataset`` is a ``LabeledDataset``; its class index is built once per pool.
    The samples and the final state of ``rng`` are those of one
    ``rng.choice(count, k, replace=False)`` per chosen class, in order, after
    the class draw (see ``_choice_rows``).
    """
    classes, counts, order, starts = dataset.class_index
    if len(classes) < n:
        raise CapacityError(f"need {n} classes, dataset has {len(classes)}")
    eligible = np.flatnonzero(counts >= k)
    if len(eligible) < n:
        raise CapacityError(f"need {n} classes with >= {k} samples, have {len(eligible)}")
    chosen = rng.choice(eligible, size=n, replace=False)
    take = _choice_rows(counts[chosen], k, rng)
    take += starts[chosen, None]
    samples = dataset.features[order[take]].astype(float, copy=False)
    return LabeledMiniBatch(samples=samples, labels=classes[chosen])


def _choice_rows(counts, k, rng):
    """Row i is ``rng.choice(counts[i], k, replace=False)``, drawn for every
    row in turn; ``rng`` ends where those per-row calls leave it. They are
    replayed from one bulk draw (see ``_replay``) where that is exact.
    """
    n = len(counts)
    if n == 0 or k == 0 or counts.max() > _replay.FLOYD_MAX:
        return _choice_loop(counts, k, rng)
    ranges = _replay.choice_ranges(counts, k)
    drawn = ranges > 1  # only Floyd's first draw, where count == k, takes no word
    saved = rng.bit_generator.state
    words = rng.integers(0, 2**32, size=np.count_nonzero(drawn), dtype=np.uint32)
    values = np.zeros(ranges.shape, dtype=np.intp)
    values[drawn], may_reject = _replay.lemire(words, ranges[drawn])
    if may_reject:
        rng.bit_generator.state = saved
        return _choice_loop(counts, k, rng)
    return _replay.choice(values.T, counts, k).T.copy()


def _choice_loop(counts, k, rng):
    take = np.empty((len(counts), k), dtype=np.intp)
    for row, count in enumerate(counts.tolist()):
        take[row] = rng.choice(count, size=k, replace=False)
    return take


def build_prototype_batch(encoded):
    """Queries in slot 1, mean of the remaining K'-1 encodings in slot 2.

    ``encoded``: (N, K', D) embeddings of a labeled mini-batch; the first
    sample of each class is the query.
    """
    encoded = np.asarray(encoded, dtype=float)
    if encoded.ndim != 3 or encoded.shape[1] < 2:
        raise ValueError("expected (N, K', D) with K' >= 2")
    n, kp, d = encoded.shape
    z = np.empty((2 * n, d))
    z[0::2] = encoded[:, 0]
    z[1::2] = encoded[:, 1:].mean(axis=1)
    return RepresentationBatch(z, *canonical_tags(n, 0), n, 0, *_prototype_sources(n, kp))


def build_augmented_batch(encoded):
    """Two views per unlabeled sample, the first in slot 1 and the second in slot 2.

    ``encoded``: (2N', D) embeddings of the views ``synth.paired_views``
    returns, view 1 then view 2 of each sample.
    """
    z = np.asarray(encoded, dtype=float)
    if z.ndim != 2 or z.shape[0] % 2:
        raise ValueError("expected (2N', D) with the two views of each sample in turn")
    n = z.shape[0] // 2
    return RepresentationBatch(z, *canonical_tags(0, n), 0, n, *_augmented_sources(n))


def merge_semi_batch(z0, z1):
    """Union of a labeled and an unlabeled batch, labeled entries first."""
    if z1.size == 0:
        return z0
    if z0.size == 0:
        return z1
    if z0.n_unlabeled or z1.n_labeled:
        raise ValueError("merge expects an all-labeled batch then an all-unlabeled one")
    if z0.dim != z1.dim:
        raise ValueError(f"embedding dims differ: {z0.dim} vs {z1.dim}")
    source_entry = source_coeff = None
    if z0.source_entry is not None and z1.source_entry is not None:
        source_entry = np.concatenate([z0.source_entry, z1.source_entry + z0.size])
        source_coeff = np.concatenate([z0.source_coeff, z1.source_coeff])
    n_labeled, n_unlabeled = z0.n_labeled, z1.n_unlabeled
    return RepresentationBatch(np.vstack([z0.z, z1.z]), *canonical_tags(n_labeled, n_unlabeled),
                               n_labeled, n_unlabeled, source_entry, source_coeff)


def backprop_to_sources(batch, grad_z):
    """Push per-entry gradients back onto the encoding pool rows (S.T @ grad_z)."""
    if batch.source_entry is None:
        raise ValueError("batch carries no source bookkeeping")
    return batch.source_coeff[:, None] * grad_z[batch.source_entry]
