"""Pair similarity kernels in log domain.

Every kernel returns an exponent e with similarity s = exp(e); keeping the
log form lets the loss stabilize its ratios with max-subtraction. Three kinds:

  sq-euclid      e = -||z - z'||^2
  cosine-temp    e = cos(g(z), g(z')) / tau, g a trainable linear projection
  affine-cosine  e = gamma * cos(z, z') + beta, gamma/beta trainable

Zero-norm vectors get cosine 0 with zero gradient, so an all-zero embedding
cannot poison training with NaNs.
"""

import math
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


class ExponentMatrix:
    """All-pairs exponents of a batch as one product of factors, with a backward pass.

    Each kernel's exponent is ``e = x @ y.T + rho``: (rows, D') factors and a
    per-row constant (v the unit rows of z, or of z @ proj):

      sq-euclid      x = [2z, -1]   y = [z, |z|^2]   rho = -|z|^2
      cosine-temp    x = v / tau    y = v            rho = 0
      affine-cosine  x = gamma v    y = v            rho = beta

    ``yt`` is a contiguous copy of y.T, so a product with it is one general
    product (NumPy never takes its slower syrk path for a whole matrix), and
    ``bound`` bounds |e| by Cauchy-Schwarz. Without ``plan`` the factors
    cover the full (M, M) matrix; with one, the plan's support block, which
    the loss never forms whole: ``ratio_terms`` writes it into the plan's
    buffer a row panel at a time, ``x[rows] @ yt``, runs the ratio kernel
    there and returns the gradient on the factors. ``e`` is the product plus
    ``rho``, formed afresh on request: the full matrix, sq-euclid's diagonal
    zeroed, or the block. ``backward`` takes that gradient on the factors
    to z and the kernel parameters, once, after the loss.
    """

    def __init__(self, z, params, plan=None):
        self.z = np.asarray(z, dtype=float)
        self.params = params
        # The block's row and column entries; None for the whole matrix.
        self._block = None if plan is None or plan.whole else (plan.rows, plan.cols)
        build = _sq_euclid if params.kind == "sq-euclid" else _cosine
        # _chain closes over the factor arrays, not over self, so an
        # ExponentMatrix is freed as soon as its last reference goes.
        self.x, self.yt, self.rho, self.bound, self._chain = build(self.z, params, self._block)

    @property
    def e(self):
        """The exponents ``x @ yt + rho``, a fresh array."""
        e = self.x @ self.yt
        e += np.reshape(self.rho, (-1, 1))
        if self._block is None and self.params.kind == "sq-euclid":
            np.fill_diagonal(e, 0.0)
        return e

    def backward(self, grad):
        """(grad_z, grad_kernel dict with gamma/beta/proj where trainable) from
        ``ratio_terms``'s ``(gx, gy, grad_rho)``."""
        return self._chain(*grad)


def _sides(block, x):
    """(x on the block's rows, x on its columns): x itself for the whole matrix."""
    if block is None:
        return x, x
    return x.take(block[0], axis=0), x.take(block[1], axis=0)


def _combine(block, m, on_rows, on_cols):
    """Per-entry sum of a gradient on the block's rows and one on its columns."""
    if block is None:
        on_rows += on_cols
        return on_rows
    out = np.zeros((m, on_rows.shape[1]))
    out[block[0]] = on_rows
    out[block[1]] += on_cols
    return out


def _sq_euclid(z, params, block):
    """(x, yt, rho, a bound on |e|, chain) of e_ij = 2 x_i.y_j - |y_j|^2 - |x_i|^2."""
    m, d = z.shape
    zx, zy = _sides(block, z)
    sq = np.einsum("ij,ij->i", z, z)
    sqx, sqy = _sides(block, sq)
    x = np.full((zx.shape[0], d + 1), -1.0)
    np.multiply(zx, 2.0, out=x[:, :d])
    yt = np.concatenate((zy.T, sqy[None]))

    def chain(gx, gy, grho):
        on_rows = 2.0 * (gx[:, :d] - zx * grho[:, None])
        on_cols = zy * (2.0 * gy[:, d:])
        on_cols += gy[:, :d]
        return _combine(block, m, on_rows, on_cols), {}

    # |x_i|^2 = 4|z_i|^2 + 1 and |y_j|^2 = |z_j|^2 + |z_j|^4, with |z|^2 <= top.
    top = float(sq.max())
    return x, yt, -sqx, math.sqrt((4.0 * top + 1.0) * (top + top * top)) + top, chain


def _cosine(z, params, block):
    """(x, yt, rho, a bound on |e|, chain) of both cosine kernels."""
    temp = params.kind == "cosine-temp"
    u = z @ params.proj if temp else z
    norms = np.linalg.norm(u, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    v = u / safe[:, None]
    vx, vy = _sides(block, v)
    x = vx / params.tau if temp else params.gamma * vx

    def chain(gx, gy, grho):
        grad_kernel = {}
        if temp:
            gx /= params.tau
        else:
            grad_kernel["gamma"] = float(np.vdot(vx, gx))
            grad_kernel["beta"] = float(np.sum(grho))
            gx *= params.gamma
        # Radial components cancel: v is a unit row.
        grad_v = _combine(block, z.shape[0], gx, gy)
        radial = np.sum(grad_v * v, axis=1, keepdims=True)
        grad_u = (grad_v - radial * v) / safe[:, None]
        grad_u[norms == 0.0] = 0.0
        if temp:
            grad_kernel["proj"] = z.T @ grad_u
            return grad_u @ params.proj.T, grad_kernel
        return grad_u, grad_kernel

    # Where the norms are finite, the rows of v have norm 1 or 0 (to rounding).
    scale, rho = (1.0 / params.tau, 0.0) if temp else (abs(params.gamma), params.beta)
    bound = scale + abs(rho) if norms.max(initial=0.0) < math.inf else math.inf
    return x, np.ascontiguousarray(vy.T), rho, bound, chain


def exponent_matrix(batch, params, plan=None):
    """ExponentMatrix over all ordered entry pairs of a representation batch,
    or over the support block of ``plan`` (see ``ExponentMatrix``)."""
    return ExponentMatrix(batch.z, params, plan)
