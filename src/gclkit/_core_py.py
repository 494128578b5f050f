"""The per-anchor ratio-loss kernel, in NumPy.

The kernel makes each pass over the (M, M) matrices once, on the active rows
only (a type-3 affinity has half its rows inactive), and builds the gradient
in place. ``np.exp`` never sees -inf: off-support cells are set to 0 before
the exponential and zeroed after it, because NumPy's exp leaves its
vectorized path on -inf and runs several times slower there. Every element
goes through the same operations in the same order as the direct formula,
so the outputs are bit-identical to it.
"""

import numpy as np


def ratio_terms(e, a, active, eps, log_transform, inv_norm):
    """Per-anchor contrastive ratios, the scalar loss, and d(loss)/d(e).

    For each active anchor row ``i``:

        r_i = sum_{a_ij > 0} exp(e_ij) / (sum_{a_ij != 0} exp(e_ij) + eps)

    evaluated with max-exponent subtraction over the row's nonzero support.
    The loss is ``-inv_norm * sum_i T(r_i)`` with T = identity or log.

    Parameters
    ----------
    e : (M, M) float64 exponent matrix (similarities are exp(e)).
    a : (M, M) float64 affinity matrix.
    active : (M,) bool, anchors with nonempty positive support.
    eps : denominator guard.
    log_transform : apply log to each ratio before averaging.
    inv_norm : 1 / normalization count.

    Returns
    -------
    (loss, r, de) where r is (M,) with zeros on inactive rows and de is the
    (M, M) gradient of the loss w.r.t. the exponent matrix.
    """
    m = e.shape[0]
    r = np.zeros(m)
    rows = np.flatnonzero(active)
    if rows.size == 0:
        return 0.0, r, np.zeros((m, m))
    if rows.size < m:
        e = e[rows]
        a = a[rows]

    # Row-wise max over the nonzero support, then w = exp(e - max) on the
    # support and 0 off it.
    off = a == 0.0
    w = np.where(off, -np.inf, e)
    mx = w.max(axis=1)
    w -= mx[:, None]
    np.copyto(w, 0.0, where=off)
    np.exp(w, out=w)
    np.copyto(w, 0.0, where=off)
    p = np.where(a > 0.0, w, 0.0)

    num = p.sum(axis=1)
    den = w.sum(axis=1) + eps * np.exp(-mx)

    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = num / den
    r[rows] = ratios

    if log_transform:
        terms = np.log(ratios)
        with np.errstate(divide="ignore"):
            dl_dr = -inv_norm / ratios
    else:
        terms = ratios
        dl_dr = np.full(rows.size, -inv_norm)
    loss = -inv_norm * float(terms.sum())

    # dr/de_ij = (p_ij * den - num * w_ij) / den^2 ; negatives have p_ij = 0.
    # Built in p's buffer, which becomes de (or its active rows).
    np.multiply(p, den[:, None], out=p)
    np.multiply(num[:, None], w, out=w)
    np.subtract(p, w, out=p)
    np.divide(p, (den * den)[:, None], out=p)
    np.multiply(dl_dr[:, None], p, out=p)
    if rows.size == m:
        return loss, r, p
    de = np.zeros((m, m))
    de[rows] = p
    return loss, r, de
