"""Synthetic speaker data and lightweight feature-space augmentations.

Each speaker is a Gaussian cluster: a mean drawn with the between-speaker
spread, and utterances scattered around it with the within-speaker spread.
Augmentations act on raw feature vectors: additive noise, random gain, and
coordinate dropout. ``paired_views`` returns two views of each unlabeled
sample as feature rows, which a training step encodes with its labeled rows.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class SyntheticConfig:
    n_speakers: int = 64
    utterances_per_speaker: int = 20
    feature_dim: int = 32
    intra_spread: float = 0.6
    inter_spread: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_speakers < 2:
            raise ValueError("need at least 2 speakers")
        if self.intra_spread <= 0 or self.inter_spread <= 0:
            raise ValueError("spreads must be positive")


@dataclass(frozen=True)
class LabeledDataset:
    """Feature rows with speaker ids.

    ``labels`` is kept as a read-only view, because ``class_index`` is
    computed from it once and then reused by every sampler.
    """

    features: np.ndarray  # (n, F)
    labels: np.ndarray  # (n,) speaker ids

    def __post_init__(self):
        labels = np.asarray(self.labels).view()
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

    @cached_property
    def class_index(self):
        """(classes, counts, order, starts), read-only.

        ``classes`` are the sorted distinct labels; the rows of ``classes[c]``
        are ``order[starts[c]:starts[c] + counts[c]]`` in ascending order.
        """
        order = np.argsort(self.labels, kind="stable")
        classes, starts, counts = np.unique(
            self.labels[order], return_index=True, return_counts=True)
        index = (classes, counts, order, starts)
        for a in index:
            a.flags.writeable = False
        return index

    @property
    def n_speakers(self):
        return len(self.class_index[0])


def synth_dataset(config, rng=None):
    rng = rng or np.random.default_rng(config.seed)
    s, u, f = config.n_speakers, config.utterances_per_speaker, config.feature_dim
    means = rng.normal(0.0, config.inter_spread, size=(s, f))
    noise = rng.normal(0.0, config.intra_spread, size=(s, u, f))
    features = (means[:, None, :] + noise).reshape(s * u, f)
    labels = np.repeat(np.arange(s), u)
    return LabeledDataset(features=features, labels=labels)


def _split_speakers(dataset, speakers, k, rng):
    """(the rows of k of ``speakers``, the other rows), as two datasets.

    The k are one ``rng.choice(speakers, k, replace=False)``; k = 0 draws
    nothing. ``cli.split_dataset`` and ``hide_labels`` both split this way.
    """
    chosen = rng.choice(speakers, size=k, replace=False) if k else speakers[:0]
    mask = np.isin(dataset.labels, chosen)
    return (LabeledDataset(dataset.features[mask], dataset.labels[mask]),
            LabeledDataset(dataset.features[~mask], dataset.labels[~mask]))


def hide_labels(dataset, p, rng):
    """Keep labels for P randomly chosen speakers; the rest become unlabeled.

    The split is by speaker, so labeled and unlabeled utterances never share
    an identity.
    """
    speakers = np.unique(dataset.labels)
    if p > len(speakers):
        raise ValueError(f"P={p} exceeds {len(speakers)} speakers")
    labeled, rest = _split_speakers(dataset, speakers, p, rng)
    return labeled, rest.features


@dataclass(frozen=True)
class AugmentationSpec:
    noise_sigma: float = 0.5
    gain_low: float = 0.8
    gain_high: float = 1.2
    dropout_rate: float = 0.1

    def __post_init__(self):
        if self.noise_sigma < 0 or not 0 <= self.dropout_rate < 1:
            raise ValueError("invalid augmentation parameters")
        if not 0 < self.gain_low <= self.gain_high:
            raise ValueError("invalid gain range")


NOISE, GAIN, DROPOUT = range(3)


@dataclass(frozen=True)
class Transform:
    """One augmentation drawn from the family, callable on an array of any shape.

    ``value`` is the noise sigma, the drawn gain or the dropout rate. Noise
    and dropout draw from ``rng`` each time they are applied, one value per
    element in C order; a gain draws nothing.
    """

    family: int  # NOISE, GAIN or DROPOUT
    value: float
    rng: "np.random.Generator"  # a string, so importing gclkit does not load numpy.random

    def __call__(self, x):
        if self.family == NOISE:
            return x + self.rng.normal(0.0, self.value, size=x.shape)
        if self.family == GAIN:
            return self.value * x
        return x * (self.rng.random(x.shape) >= self.value)


def draw_transform(spec, rng):
    """Draw one transform from the augmentation family.

    The family (and a gain's value) is drawn here; the transform is then
    applied unchanged to every sample it is given.
    """
    family = int(rng.integers(3))
    if family == NOISE:
        value = spec.noise_sigma
    elif family == GAIN:
        value = rng.uniform(spec.gain_low, spec.gain_high)
    else:
        value = spec.dropout_rate
    return Transform(family, value, rng)


def paired_views(samples, t1, t2):
    """(2n, F) views of the n rows of ``samples``: ``t1`` then ``t2`` of row 0,
    then of row 1, and so on.

    The draws come out in that order too. Where that order allows, the views
    are drawn with one call per batch instead of one per sample.
    """
    n, f = samples.shape
    bulk = isinstance(t1, Transform) and isinstance(t2, Transform)
    if bulk and (t1.rng is not t2.rng or GAIN in (t1.family, t2.family)):
        # At most one of them draws from each generator, row after row.
        return np.stack([t1(samples), t2(samples)], axis=1).reshape(2 * n, f)
    if bulk and t1.family == t2.family:
        # Both draw from the same distribution: one draw covers both views.
        # A per-view column; a scalar when both views agree (a broadcast
        # normal() draw costs about twice a scalar one, same values).
        value = t1.value if t1.value == t2.value else np.array([[t1.value], [t2.value]])
        if t1.family == NOISE:
            views = samples[:, None] + t1.rng.normal(0.0, value, size=(n, 2, f))
        else:
            views = samples[:, None] * (t1.rng.random((n, 2, f)) >= value)
        return views.reshape(2 * n, f)
    # Noise with dropout interleaves two distributions sample by sample, and
    # an arbitrary callable may do anything: apply them per sample.
    views = np.empty((2 * n, f))
    for i, x in enumerate(samples):
        views[2 * i] = t1(x)
        views[2 * i + 1] = t2(x)
    return views
