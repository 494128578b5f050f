"""Synthetic speaker data and lightweight feature-space augmentations.

Each speaker is a Gaussian cluster: a mean drawn with the between-speaker
spread, and utterances scattered around it with the within-speaker spread.
Augmentations act on raw feature vectors: additive noise, random gain, and
coordinate dropout.
"""

from dataclasses import dataclass

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
    features: np.ndarray  # (n, F)
    labels: np.ndarray  # (n,) speaker ids

    @property
    def n_speakers(self):
        return len(np.unique(self.labels))


def synth_dataset(config, rng=None):
    rng = rng or np.random.default_rng(config.seed)
    s, u, f = config.n_speakers, config.utterances_per_speaker, config.feature_dim
    means = rng.normal(0.0, config.inter_spread, size=(s, f))
    noise = rng.normal(0.0, config.intra_spread, size=(s, u, f))
    features = (means[:, None, :] + noise).reshape(s * u, f)
    labels = np.repeat(np.arange(s), u)
    return LabeledDataset(features=features, labels=labels)


def nearest_class_mean_errors(dataset):
    """Leave-one-out nearest-class-mean misclassifications on raw features."""
    classes = np.unique(dataset.labels)
    sums = np.stack([dataset.features[dataset.labels == c].sum(axis=0) for c in classes])
    counts = np.array([(dataset.labels == c).sum() for c in classes])
    errors = 0
    for x, y in zip(dataset.features, dataset.labels):
        own = np.searchsorted(classes, y)
        m = sums.copy()
        n = counts.astype(float).copy()
        m[own] -= x
        n[own] -= 1
        d = np.linalg.norm(m / n[:, None] - x, axis=1)
        errors += int(classes[np.argmin(d)] != y)
    return errors


def hide_labels(dataset, p, rng):
    """Keep labels for P randomly chosen speakers; the rest become unlabeled.

    The split is by speaker, so labeled and unlabeled utterances never share
    an identity.
    """
    speakers = np.unique(dataset.labels)
    if p > len(speakers):
        raise ValueError(f"P={p} exceeds {len(speakers)} speakers")
    keep = rng.choice(speakers, size=p, replace=False) if p else np.array([], dtype=int)
    mask = np.isin(dataset.labels, keep)
    labeled = LabeledDataset(dataset.features[mask], dataset.labels[mask])
    unlabeled = dataset.features[~mask]
    return labeled, unlabeled


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


def draw_transform(spec, rng):
    """Draw one per-sample transform from the augmentation family."""
    family = rng.integers(3)
    if family == 0:
        sigma = spec.noise_sigma

        def t(x, _rng=rng, _s=sigma):
            return x + _rng.normal(0.0, _s, size=x.shape)

    elif family == 1:
        gain = rng.uniform(spec.gain_low, spec.gain_high)

        def t(x, _g=gain):
            return _g * x

    else:
        rate = spec.dropout_rate

        def t(x, _rng=rng, _r=rate):
            return x * (_rng.random(x.shape) >= _r)

    return t
