import numpy as np
import pytest

from gclkit import batch as batching
from gclkit import synth


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_prototype_batch(rng, n=None, kp=None, d=None, scale=None):
    n = n or int(rng.integers(2, 9))
    kp = kp or int(rng.integers(2, 5))
    d = d or int(rng.integers(2, 17))
    scale = scale or 0.5 / np.sqrt(d)
    return batching.build_prototype_batch(rng.normal(0.0, scale, size=(n, kp, d)))


def random_augmented_batch(rng, n=None, d=None):
    n = n or int(rng.integers(2, 9))
    d = d or int(rng.integers(2, 17))
    samples = rng.normal(size=(n, d))
    noise = lambda x: x + rng.normal(0.0, 0.1, size=x.shape)
    return batching.build_augmented_batch(synth.paired_views(samples, noise, noise))


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
