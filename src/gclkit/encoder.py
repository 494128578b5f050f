"""Small two-layer embedding network with hand-written backprop.

The parameters are one float64 vector, ``flat``; ``params`` holds W1, b1, W2,
b2 as reshaped views of it, in that order. forward() returns the embeddings
plus a cache; backward(cache, grad_z) returns the gradient in ``flat``'s layout.
"""

import numpy as np


class Encoder:
    """x -> tanh(x W1 + b1) W2 + b2, mapping F-dim features to D-dim embeddings."""

    def __init__(self, f_in, hidden, d_out, rng):
        self.f_in = f_in
        self.hidden = hidden
        self.d_out = d_out
        # Where W1, b1, W2 and b2 start in ``flat``, worked out once.
        self._starts = np.cumsum([0, f_in * hidden, hidden, hidden * d_out]).tolist()
        self.flat = np.zeros(self._starts[-1] + d_out)
        self.params = dict(zip(("W1", "b1", "W2", "b2"), self._views(self.flat)))
        self.params["W1"][...] = rng.normal(0.0, 1.0 / np.sqrt(f_in), size=(f_in, hidden))
        self.params["W2"][...] = rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(hidden, d_out))

    def _views(self, vector):
        """W1, b1, W2, b2 as views of a vector in ``flat``'s layout."""
        a, b, c, d = self._starts
        return (vector[a:b].reshape(self.f_in, self.hidden), vector[b:c],
                vector[c:d].reshape(self.hidden, self.d_out), vector[d:])

    def forward(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        # In place on h and z: the class formula's operations, no temporaries.
        h = x @ self.params["W1"]
        h += self.params["b1"]
        np.tanh(h, out=h)
        z = h @ self.params["W2"]
        z += self.params["b2"]
        return z, (x, h)

    def __call__(self, x):
        return self.forward(x)[0]

    def backward(self, cache, grad_z):
        x, h = cache
        grad = np.empty_like(self.flat)
        g_w1, g_b1, g_w2, g_b2 = self._views(grad)
        np.matmul(h.T, grad_z, out=g_w2)
        grad_z.sum(axis=0, out=g_b2)
        dh = grad_z @ self.params["W2"].T
        t = h * h
        np.subtract(1.0, t, out=t)
        dh *= t
        np.matmul(x.T, dh, out=g_w1)
        dh.sum(axis=0, out=g_b1)
        return grad
