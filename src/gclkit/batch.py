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

Batches built from encoder outputs also record ``pool_rows``, how many rows
of the encoding pool they were built from. The pool's order is fixed, the
N*K' labeled rows class by class (query first) then the 2N' views, so the
count gives the sparse matrix S with ``z = S @ pool``: each query and view
row feeds its own entry, and each support 1/(K'-1) of its class's prototype.
A training step encodes one pool and builds both batches from slices of the
output; ``backprop_to_sources`` writes ``S.T @ grad_z`` for one encoder
backward pass.

The labeled rows come from two-step sampling: one ``rng.choice`` of N
classes, then K' rows of each. The second step's stream is one
``rng.choice(count, K', replace=False)`` per class, replayed from one bulk
draw of words (see ``_replay``) where that is exact.
"""

from dataclasses import dataclass
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
    pool_rows: int = 0  # encoding-pool rows the batch was built from, 0 = no pool

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
    return RepresentationBatch(z, *canonical_tags(n, 0), n, 0, n * kp)


def build_augmented_batch(encoded):
    """Two views per unlabeled sample, the first in slot 1 and the second in slot 2.

    ``encoded``: (2N', D) embeddings of the views ``synth.paired_views``
    returns, view 1 then view 2 of each sample.
    """
    z = np.asarray(encoded, dtype=float)
    if z.ndim != 2 or z.shape[0] % 2:
        raise ValueError("expected (2N', D) with the two views of each sample in turn")
    n = z.shape[0] // 2
    return RepresentationBatch(z, *canonical_tags(0, n), 0, n, 2 * n)


def merge_semi_batch(z0, z1):
    """Union of a labeled and an unlabeled batch, labeled entries first.

    Both must come from the builders: the merged batch covers z0's pool rows,
    then z1's.
    """
    if z0.n_unlabeled or z1.n_labeled:
        raise ValueError("merge expects an all-labeled batch then an all-unlabeled one")
    if z0.dim != z1.dim:
        raise ValueError(f"embedding dims differ: {z0.dim} vs {z1.dim}")
    if not (z0.pool_rows and z1.pool_rows):
        raise ValueError("merge expects two batches built from an encoding pool")
    n_labeled, n_unlabeled = z0.n_labeled, z1.n_unlabeled
    return RepresentationBatch(np.vstack([z0.z, z1.z]), *canonical_tags(n_labeled, n_unlabeled),
                               n_labeled, n_unlabeled, z0.pool_rows + z1.pool_rows)


def backprop_to_sources(batch, grad_z):
    """Push per-entry gradients back onto the encoding pool rows (S.T @ grad_z).

    Each query and view row takes its entry's gradient, and each of a class's
    K'-1 support rows 1/(K'-1) times its prototype's.
    """
    if not batch.pool_rows:
        raise ValueError("batch was not built from an encoding pool")
    if grad_z.shape != batch.z.shape:
        raise ValueError(f"grad_z has shape {grad_z.shape}, the batch {batch.z.shape}")
    n, views = batch.n_labeled, 2 * batch.n_unlabeled
    kp, rest = divmod(batch.pool_rows - views, n) if n else (2, batch.pool_rows - views)
    if kp < 2 or rest:
        raise ValueError(f"{batch.pool_rows} pool rows fit no layout of {n} classes "
                         f"and {views} views")
    if not n:
        return grad_z.copy()
    out = np.empty((batch.pool_rows, batch.dim))
    labeled = out[:n * kp].reshape(n, kp, -1)
    pairs = grad_z[:2 * n].reshape(n, 2, -1)  # (query, prototype) of each class
    labeled[:, 0] = pairs[:, 0]
    labeled[:, 1:] = pairs[:, 1:] * (1.0 / (kp - 1))
    out[n * kp:] = grad_z[2 * n:]
    return out
