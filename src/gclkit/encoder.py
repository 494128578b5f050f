"""Small two-layer embedding network with hand-written backprop.

forward() returns the embeddings plus a cache; backward(cache, grad_z)
returns the parameter gradients.
"""

import numpy as np


class Encoder:
    """x -> tanh(x W1 + b1) W2 + b2, mapping F-dim features to D-dim embeddings."""

    def __init__(self, f_in, hidden, d_out, rng):
        self.f_in = f_in
        self.hidden = hidden
        self.d_out = d_out
        self.params = {
            "W1": rng.normal(0.0, 1.0 / np.sqrt(f_in), size=(f_in, hidden)),
            "b1": np.zeros(hidden),
            "W2": rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(hidden, d_out)),
            "b2": np.zeros(d_out),
        }

    def forward(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        h = np.tanh(x @ self.params["W1"] + self.params["b1"])
        z = h @ self.params["W2"] + self.params["b2"]
        return z, (x, h)

    def __call__(self, x):
        return self.forward(x)[0]

    def backward(self, cache, grad_z):
        x, h = cache
        grads = {
            "W2": h.T @ grad_z,
            "b2": grad_z.sum(axis=0),
        }
        dh = (grad_z @ self.params["W2"].T) * (1.0 - h * h)
        grads["W1"] = x.T @ dh
        grads["b1"] = dh.sum(axis=0)
        return grads

    def flat_params(self):
        return np.concatenate([self.params[k].ravel() for k in sorted(self.params)])

    def set_flat_params(self, flat):
        pos = 0
        for k in sorted(self.params):
            n = self.params[k].size
            self.params[k] = np.asarray(flat[pos : pos + n]).reshape(self.params[k].shape)
            pos += n
