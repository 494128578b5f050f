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
