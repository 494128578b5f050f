"""Pair similarity kernels in log domain.

Every kernel returns an exponent e with similarity s = exp(e); keeping the
log form lets the loss stabilize its ratios with max-subtraction. Three kinds:

  sq-euclid      e = -||z - z'||^2
  cosine-temp    e = cos(g(z), g(z')) / tau, g a trainable linear projection
  affine-cosine  e = gamma * cos(z, z') + beta, gamma/beta trainable

Zero-norm vectors get cosine 0 with zero gradient, so an all-zero embedding
cannot poison training with NaNs.
"""

from dataclasses import dataclass, field

import numpy as np

KINDS = ("sq-euclid", "cosine-temp", "affine-cosine")
GAMMA_MIN = 1e-3


@dataclass
class KernelParams:
    kind: str = "sq-euclid"
    tau: float = 0.5
    gamma: float = 10.0
    beta: float = -5.0
    proj: np.ndarray = field(default=None, repr=False)  # (D, D_p), cosine-temp only

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.kind == "cosine-temp" and self.proj is None:
            raise ValueError("cosine-temp kernel needs a projection matrix")
        if self.kind != "cosine-temp":
            self.proj = None


def _cos(z, zp):
    nz, nzp = np.linalg.norm(z), np.linalg.norm(zp)
    if nz == 0.0 or nzp == 0.0:
        return 0.0
    return float(np.dot(z, zp) / (nz * nzp))


def sqeuclid_exponent(z, zp):
    z, zp = np.asarray(z, float), np.asarray(zp, float)
    if z.shape != zp.shape:
        raise ValueError("dimension mismatch")
    diff = z - zp
    return -float(np.dot(diff, diff))


def cosine_temp_exponent(z, zp, params):
    if params.proj is None:
        raise ValueError("cosine-temp kernel needs a projection matrix")
    return _cos(np.asarray(z, float) @ params.proj, np.asarray(zp, float) @ params.proj) / params.tau


def affine_cosine_exponent(z, zp, params):
    return params.gamma * _cos(np.asarray(z, float), np.asarray(zp, float)) + params.beta


def scalar_exponent(z, zp, params):
    if params.kind == "sq-euclid":
        return sqeuclid_exponent(z, zp)
    if params.kind == "cosine-temp":
        return cosine_temp_exponent(z, zp, params)
    return affine_cosine_exponent(z, zp, params)


class _Fresh:
    """Buffer slots with nothing in them: every array is allocated anew."""

    e = gram = None


class ExponentMatrix:
    """All-pairs exponents for a batch, with a backward pass.

    ``backward(grad_e)`` maps a gradient on the exponent matrix to gradients
    on the batch embeddings and on the trainable kernel parameters.

    ``plan`` (an affinity matrix's loss plan) lends two (M, M) buffers: one
    for the exponent ``e``, one for the Gram product (the cosine ``_c``, or
    ``2z @ z.T``). The backward pass reuses them once their contents are
    read for the last time: ``grad_c`` goes to the Gram buffer and
    ``grad_c + grad_c.T`` (for sq-euclid ``grad_e + grad_e.T``) to ``e``'s.
    Each array is written with ``out=`` by the operation that would
    otherwise allocate it, so the values are the same bits. Such a matrix
    is valid until the plan's next evaluation, and its ``backward`` runs
    once, after the loss has read ``e``.
    """

    def __init__(self, z, params, plan=None):
        self.z = np.asarray(z, dtype=float)
        self.params = params
        self._out = out = _Fresh if plan is None else plan
        kind = params.kind
        if kind == "sq-euclid":
            # -(|z|^2 + |z'|^2 - 2 z.z'), each (M, M) step in one buffer.
            # The product is (2z) @ z.T: 2 * (z @ z.T) would round differently.
            # |z|^2 + |z'|^2 as a copy of the column, then += the row: np.add of
            # the two broadcasts would buffer both operands in its iterator.
            sq = np.sum(self.z**2, axis=1)
            self.e = np.empty((sq.size, sq.size)) if out.e is None else out.e
            self.e[...] = sq[:, None]
            self.e += sq
            self.e -= np.matmul(2.0 * self.z, self.z.T, out=out.gram)
            np.negative(self.e, out=self.e)
            np.fill_diagonal(self.e, 0.0)
        else:
            self._u = self.z @ params.proj if kind == "cosine-temp" else self.z
            norms = np.linalg.norm(self._u, axis=1)
            self._norms = norms
            safe = np.where(norms == 0.0, 1.0, norms)
            self._v = self._u / safe[:, None]
            self._c = np.matmul(self._v, self._v.T, out=out.gram)
            if kind == "cosine-temp":
                self.e = np.divide(self._c, params.tau, out=out.e)
            else:
                self.e = np.multiply(params.gamma, self._c, out=out.e)
                self.e += params.beta

    def backward(self, grad_e):
        """Returns (grad_z, grad_kernel dict with gamma/beta/proj where trainable)."""
        kind = self.params.kind
        out = self._out
        grad_kernel = {}
        if kind == "sq-euclid":
            s = np.add(grad_e, grad_e.T, out=out.e)
            grad_z = -2.0 * (s.sum(axis=1)[:, None] * self.z - s @ self.z)
            return grad_z, grad_kernel

        if kind == "cosine-temp":
            grad_c = np.divide(grad_e, self.params.tau, out=out.gram)
        else:
            grad_c = np.multiply(grad_e, self._c, out=out.gram)
            grad_kernel["gamma"] = float(np.sum(grad_c))
            grad_kernel["beta"] = float(np.sum(grad_e))
            np.multiply(self.params.gamma, grad_e, out=grad_c)

        # c = v v^T with v = u / ||u||; radial components cancel on the diagonal.
        grad_v = np.add(grad_c, grad_c.T, out=out.e) @ self._v
        radial = np.sum(grad_v * self._v, axis=1, keepdims=True)
        safe = np.where(self._norms == 0.0, 1.0, self._norms)
        grad_u = (grad_v - radial * self._v) / safe[:, None]
        grad_u[self._norms == 0.0] = 0.0

        if kind == "cosine-temp":
            grad_kernel["proj"] = self.z.T @ grad_u
            grad_z = grad_u @ self.params.proj.T
        else:
            grad_z = grad_u
        return grad_z, grad_kernel


def exponent_matrix(batch, params, plan=None):
    """ExponentMatrix over all ordered entry pairs of a representation batch.

    ``plan`` lends the (M, M) buffers (see ``ExponentMatrix``).
    """
    return ExponentMatrix(batch.z, params, plan)
