"""``Encoder.forward`` and ``backward`` work in place on their own temporaries.

They must give the bytes of the plain expressions they replace and leave
the cache they are given as it was.
"""

import numpy as np
import pytest

from gclkit.encoder import Encoder


def encoder_with_biases(seed):
    enc = Encoder(9, 12, 5, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    enc.params["b1"][...] = rng.normal(size=12)
    enc.params["b2"][...] = rng.normal(size=5)
    return enc


def plain_forward(enc, x):
    p = enc.params
    h = np.tanh(x @ p["W1"] + p["b1"])
    return h @ p["W2"] + p["b2"], h


def plain_backward(enc, x, h, grad_z):
    dh = (grad_z @ enc.params["W2"].T) * (1.0 - h * h)
    return np.concatenate([(x.T @ dh).ravel(), dh.sum(axis=0),
                           (h.T @ grad_z).ravel(), grad_z.sum(axis=0)])


@pytest.mark.parametrize("rows", [1, 13, 768])
def test_forward_matches_plain_expression(rows):
    enc = encoder_with_biases(rows)
    x = np.random.default_rng(2).normal(size=(rows, 9))
    z, (cx, h) = enc.forward(x)
    want_z, want_h = plain_forward(enc, x)
    assert z.tobytes() == want_z.tobytes()
    assert h.tobytes() == want_h.tobytes()
    assert cx.tobytes() == x.tobytes()


@pytest.mark.parametrize("rows", [1, 13, 768])
def test_backward_matches_plain_expression_and_keeps_the_cache(rows):
    enc = encoder_with_biases(rows)
    rng = np.random.default_rng(3)
    x, grad_z = rng.normal(size=(rows, 9)), rng.normal(size=(rows, 5))
    _, cache = enc.forward(x)
    kept = [a.tobytes() for a in (*cache, grad_z)]
    grad = enc.backward(cache, grad_z)
    assert grad.tobytes() == plain_backward(enc, *cache, grad_z).tobytes()
    assert [a.tobytes() for a in (*cache, grad_z)] == kept
