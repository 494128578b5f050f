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

    Without ``plan`` the exponent matrix ``e`` is the full (M, M) one. With
    one (an affinity matrix's loss plan), ``e`` is the plan's (R, C) support
    block, computed from the entries of its rows and of its columns only,
    and the plan lends two buffers of that shape: one for ``e``, one for the
    Gram product (the cosine ``_c``, or ``2x @ y.T``), which the backward
    pass reuses once its contents are read for the last time. When the block
    is the whole matrix, the products stay ``(2z) @ z.T`` and ``v @ v.T``
    (NumPy hands a product of an array with its own transpose to a different
    BLAS routine) and the diagonal is zeroed, as without a plan. Such a
    matrix is valid until the plan's next evaluation, and its ``backward``
    runs once, after the loss has read ``e``.
    """

    def __init__(self, z, params, plan=None):
        self.z = np.asarray(z, dtype=float)
        self.params = params
        self._out = out = _Fresh if plan is None else plan
        # The block's row and column entries; None for the whole matrix.
        self._block = None if plan is None or plan.whole else (plan.rows, plan.cols)
        kind = params.kind
        if kind == "sq-euclid":
            # -(|x|^2 + |y|^2 - 2 x.y), each step in one buffer. The product
            # is (2x) @ y.T: 2 * (x @ y.T) would round differently.
            # |x|^2 + |y|^2 as a copy of the column, then += the row: np.add of
            # the two broadcasts would buffer both operands in its iterator.
            # x1 and y1 are the rows' and the columns' entries with a column
            # of ones appended, so that the backward's two products carry the
            # gradient's row and column sums in their last column; x and y
            # are views of them without it.
            m, d = self.z.shape
            z1 = np.empty((m, d + 1))
            z1[:, :d] = self.z
            z1[:, d] = 1.0
            self._x1, self._y1 = x1, y1 = self._sides(z1)
            x, y = x1[:, :d], y1[:, :d]
            sqx, sqy = self._sides(np.sum(self.z**2, axis=1))
            self.e = np.empty((sqx.size, sqy.size)) if out.e is None else out.e
            self.e[...] = sqx[:, None]
            self.e += sqy
            self.e -= np.matmul(2.0 * x, y.T, out=out.gram)
            np.negative(self.e, out=self.e)
            if self._block is None:
                np.fill_diagonal(self.e, 0.0)
        else:
            u = self.z @ params.proj if kind == "cosine-temp" else self.z
            norms = np.linalg.norm(u, axis=1)
            self._norms = norms
            safe = np.where(norms == 0.0, 1.0, norms)
            self._v = u / safe[:, None]
            self._vx, self._vy = vx, vy = self._sides(self._v)
            self._c = np.matmul(vx, vy.T, out=out.gram)
            if kind == "cosine-temp":
                self.e = np.divide(self._c, params.tau, out=out.e)
            else:
                self.e = np.multiply(params.gamma, self._c, out=out.e)
                self.e += params.beta

    def _sides(self, x):
        """(x on the block's rows, x on its columns): x itself for the whole matrix."""
        if self._block is None:
            return x, x
        rows, cols = self._block
        return x.take(rows, axis=0), x.take(cols, axis=0)

    def _combine(self, on_rows, on_cols):
        """Per-entry sum of a gradient on the block's rows and one on its columns."""
        if self._block is None:
            on_rows += on_cols
            return on_rows
        rows, cols = self._block
        out = np.zeros((self.z.shape[0], on_rows.shape[1]))
        out[rows] = on_rows
        out[cols] += on_cols
        return out

    def backward(self, grad_e):
        """Returns (grad_z, grad_kernel dict with gamma/beta/proj where trainable)."""
        kind = self.params.kind
        out = self._out
        grad_kernel = {}
        if kind == "sq-euclid":
            # e_ij = -|x_i - y_j|^2, so de_ij/dx_i = -2 (x_i - y_j) = -de_ij/dy_j:
            # grad_z = -2 (s z - p), where s and p add up, per entry, the row
            # sums and grad_e @ y on the rows, and the column sums and
            # grad_e.T @ x on the columns. With the ones column, each
            # product gives p and s together.
            d = self.z.shape[1]
            ps = self._combine(grad_e @ self._y1, grad_e.T @ self._x1)
            grad_z = ps[:, d:] * self.z
            grad_z -= ps[:, :d]
            grad_z *= -2.0
            return grad_z, grad_kernel

        if kind == "cosine-temp":
            grad_c = np.divide(grad_e, self.params.tau, out=out.gram)
        else:
            grad_c = np.multiply(grad_e, self._c, out=out.gram)
            grad_kernel["gamma"] = float(np.sum(grad_c))
            grad_kernel["beta"] = float(np.sum(grad_e))
            np.multiply(self.params.gamma, grad_e, out=grad_c)

        # c = vx vy^T with v = u / ||u||; radial components cancel on the diagonal.
        grad_v = self._combine(grad_c @ self._vy, grad_c.T @ self._vx)
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
    """ExponentMatrix over all ordered entry pairs of a representation batch,
    or over the support block of ``plan`` (see ``ExponentMatrix``)."""
    return ExponentMatrix(batch.z, params, plan)
