"""The per-anchor ratio-loss kernel, in NumPy.

The kernel makes each pass over the (M, M) matrices once, on the active rows
only (a type-3 affinity has half its rows inactive), and builds the gradient
in place. ``np.exp`` never sees -inf: off-support cells are set to 0 before
the exponential and zeroed after it, because NumPy's exp leaves its
vectorized path on -inf and runs several times slower there. Every element
goes through the same operations in the same order as the direct formula,
so the outputs are bit-identical to it.

The affinity may be int8 (the built-in layouts) or float: the kernel only
compares it with 0, so both give the same bits.

The NT-Xent layout (type 4 and strict semi) has its own path, taken when the
caller passes ``partner``, the column of each row's only positive, with
every off-diagonal cell in the support (``AffinityMatrix.partner``). There
the off-support mask is the diagonal, so ``w`` is built without masks, and
the numerator is ``w[i, partner[i]]``: the direct formula's row sum adds
only +0.0 to it, which leaves every value, NaN and inf unchanged. Off the
partner cell the direct gradient's first term is ``0 * den``, which the path
keeps (it is NaN where ``den`` is inf, and it fixes the sign of a zero), and
the partner cells are then overwritten with the direct formula in O(M).

With a plan (``AffinityMatrix._loss_plan()``) the kernel reads the active
rows and the masks from it and works in its buffers. That moves where the
values are stored, not how they are computed: ``np.take`` plus a masked
``copyto`` select the cells ``np.where`` selected, and every ufunc writes
with ``out=`` the values it would return in a fresh array, in the same
order. The gradient's inactive rows are the plan's zeros, never written.
"""

import numpy as np


def ratio_terms(e, a, active, eps, log_transform, inv_norm, partner=None, plan=None):
    """Per-anchor contrastive ratios, the scalar loss, and d(loss)/d(e).

    For each active anchor row ``i``:

        r_i = sum_{a_ij > 0} exp(e_ij) / (sum_{a_ij != 0} exp(e_ij) + eps)

    evaluated with max-exponent subtraction over the row's nonzero support.
    The loss is ``-inv_norm * sum_i T(r_i)`` with T = identity or log.

    Parameters
    ----------
    e : (M, M) float64 exponent matrix (similarities are exp(e)).
    a : (M, M) int8 or float64 affinity matrix.
    active : (M,) bool, anchors with nonempty positive support.
    eps : denominator guard.
    log_transform : apply log to each ratio before averaging.
    inv_norm : 1 / normalization count.
    partner : optional (M,) int, the column of each row's only positive when
        every off-diagonal cell of ``a`` is nonzero and the diagonal is zero.
        The results are the same with or without it; it is used only when
        every row is active.
    plan : optional loss plan of the affinity matrix ``a`` and ``active``
        belong to (``AffinityMatrix._loss_plan()``), passed with that
        matrix's ``partner``. The kernel then takes the active rows and masks
        from it and works in its buffers; the returned ``de`` is the plan's
        buffer, valid until the plan's next evaluation. Without a plan every
        array is allocated anew.

    Returns
    -------
    (loss, r, de) where r is (M,) with zeros on inactive rows and de is the
    (M, M) gradient of the loss w.r.t. the exponent matrix.
    """
    m = e.shape[0]
    r = np.zeros(m)
    rows = np.flatnonzero(active) if plan is None else plan.rows
    if rows.size == 0:
        return 0.0, r, np.zeros((m, m))
    dense = partner is not None and rows.size == m

    # Row-wise max over the nonzero support, then w = exp(e - max) on the
    # support and 0 off it.
    if dense:
        if plan is None:
            w = e.copy()
        else:
            w = plan.de
            np.copyto(w, e)
        diag = w.reshape(-1)[:: m + 1]  # the off-support cells
        diag[:] = -np.inf
        mx = w.max(axis=1)
        w -= mx[:, None]
        diag[:] = 0.0
        np.exp(w, out=w)
        diag[:] = 0.0
        num = w[rows, partner]
    else:
        if plan is None:
            if rows.size < m:
                e = e[rows]
                a = a[rows]
            off = a == 0
            w = np.where(off, -np.inf, e)
        else:
            off, w = plan.off, plan.w
            np.take(e, rows, axis=0, out=w, mode="clip")
            np.copyto(w, -np.inf, where=off)
        mx = w.max(axis=1)
        w -= mx[:, None]
        np.copyto(w, 0.0, where=off)
        np.exp(w, out=w)
        np.copyto(w, 0.0, where=off)
        if plan is None:
            p = np.where(a > 0, w, 0.0)
        else:
            p = plan.p
            p.fill(0.0)
            np.copyto(p, w, where=plan.pos)
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
    if dense:
        # Built in w's buffer: p_ij = 0 off the partner cells, which are then
        # overwritten with p_ij = w_ij = num.
        np.multiply(num[:, None], w, out=w)
        np.subtract((0.0 * den)[:, None], w, out=w)
        np.divide(w, (den * den)[:, None], out=w)
        np.multiply(dl_dr[:, None], w, out=w)
        w[rows, partner] = dl_dr * ((num * den - num * num) / (den * den))
        return loss, r, w
    # Built in p's buffer, which becomes de (or its active rows).
    np.multiply(p, den[:, None], out=p)
    np.multiply(num[:, None], w, out=w)
    np.subtract(p, w, out=p)
    np.divide(p, (den * den)[:, None], out=p)
    np.multiply(dl_dr[:, None], p, out=p)
    if plan is not None:
        if plan.scatter:
            plan.de[rows] = p
        return loss, r, plan.de
    if rows.size == m:
        return loss, r, p
    de = np.zeros((m, m))
    de[rows] = p
    return loss, r, de
