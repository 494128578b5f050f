"""Noise with dropout on one generator: ``paired_views`` fills the views in
stream order, then transforms each half at once.

Checked byte for byte against the per-sample reference, so that a zero of
the wrong sign shows, and with the generator's whole end state.
"""

import numpy as np
import pytest

from gclkit import synth
from gclkit.synth import DROPOUT, NOISE

from test_sampling_reference import BIT_GENERATORS, reference_closure, reference_views


def signed_samples(n, f, seed):
    """Normal rows with exact zeros of both signs, where a sign can flip."""
    samples = np.random.default_rng(seed).normal(size=(n, f))
    samples[:, 0] = -0.0
    samples[:, 1] = 0.0
    return samples


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
@pytest.mark.parametrize("order", [(NOISE, DROPOUT), (DROPOUT, NOISE)],
                         ids=["noise-dropout", "dropout-noise"])
@pytest.mark.parametrize("n", [0, 1, 384])
@pytest.mark.parametrize("sigma, rate", [(0.5, 0.1), (0.0, 0.1), (0.5, 0.0), (0.0, 0.0)])
def test_matches_per_sample_reference(bit_generator, order, n, sigma, rate):
    samples = signed_samples(n, 7, seed=n)
    value = {NOISE: sigma, DROPOUT: rate}
    ra, rb = np.random.Generator(bit_generator(11)), np.random.Generator(bit_generator(11))
    want = reference_views(samples, *(reference_closure(f, value[f], ra) for f in order))
    got = synth.paired_views(samples, *(synth.Transform(f, value[f], rb) for f in order))
    assert got.shape == (2 * n, 7) and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    np.testing.assert_equal(rb.bit_generator.state, ra.bit_generator.state)


def test_keeps_the_callers_samples():
    samples = signed_samples(5, 4, seed=2)
    before = samples.tobytes()
    rng = np.random.default_rng(3)
    synth.paired_views(samples, synth.Transform(NOISE, 0.5, rng), synth.Transform(DROPOUT, 0.1, rng))
    assert samples.tobytes() == before


def test_takes_no_per_sample_transform_call(monkeypatch):
    """Neither transform is applied row by row."""
    def per_sample(self, x):
        raise AssertionError("a per-sample transform call ran")

    rng = np.random.default_rng(4)
    t1, t2 = synth.Transform(DROPOUT, 0.1, rng), synth.Transform(NOISE, 0.5, rng)
    monkeypatch.setattr(synth.Transform, "__call__", per_sample)
    assert synth.paired_views(signed_samples(6, 3, seed=5), t1, t2).shape == (12, 3)
