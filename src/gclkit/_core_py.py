"""The per-anchor ratio-loss kernel, in NumPy, and the loss plan it runs on.

The kernel makes each pass over the (M, M) matrices once, on the active rows
only (a type-3 affinity has half its rows inactive), and builds the gradient
in place. ``np.exp`` never sees -inf: off-support cells are set to 0 before
the exponential and zeroed after it, because NumPy's exp leaves its
vectorized path on -inf and runs several times slower there. Every element
goes through the same operations in the same order as the direct formula,
so the outputs are bit-identical to it.

The affinity may be int8 (the built-in layouts) or float: the kernel only
compares it with 0, so both give the same bits.

Every evaluation runs on a ``_LossPlan``: an ``AffinityMatrix`` builds its
plan on its first evaluation and holds it, with three float64 (M, M)
buffers, while it lives; a call without a plan builds a throwaway one. The
plan changes where values are stored, not how they are computed: ``np.take``
plus a masked ``copyto`` select the cells ``np.where`` would, and every
ufunc writes with ``out=`` the values it would return in a fresh array, in
the same order, so the exponent matrix, the kernel and the backward pass
give the bits they give without it.

The NT-Xent layout (type 4 and strict semi) has its own path, taken when the
plan's ``partner`` field is set: the column of each row's only positive,
with every off-diagonal cell in the support. There the off-support mask is
the diagonal, so ``w`` is built without masks, and the numerator is
``w[i, partner[i]]``: the direct formula's row sum adds only +0.0 to it,
which leaves every value, NaN and inf unchanged. Off the partner cell the
direct gradient's first term is ``0 * den``, which the path keeps (it is NaN
where ``den`` is inf, and it fixes the sign of a zero), and the partner
cells are then overwritten with the direct formula in O(M).
"""

import numpy as np


def _partner(a, rows):
    """The read-only ``partner`` column of the NT-Xent pattern, or None.

    Any matrix with that pattern of zero and positive cells has one: the
    kernel reads no magnitudes."""
    m = a.shape[0]
    # The cheapest exits first: the M-element active count rejects types 1
    # and 3 before either M^2 count, and the counts come before the positive
    # mask, which other layouts never need. count_nonzero, not .all()/.any(),
    # because the reductions' call overhead is most of the cost at small M.
    if (m == 0 or rows.size != m or np.count_nonzero(a) != m * (m - 1)
            or np.count_nonzero(a.diagonal())):
        return None
    pos = a > 0
    partner = pos.argmax(axis=1)
    # One positive per row: M in all, and each row's first is positive (a
    # caller's ``active`` may flag a row that has none).
    if np.count_nonzero(pos) != m or not pos[rows, partner].all():
        return None
    partner.flags.writeable = False
    return partner


class _LossPlan:
    """What every loss evaluation on one affinity matrix would otherwise rebuild.

    Built from the (M, M) affinity ``a`` and the (M,) anchor mask ``active``.
    ``rows`` are the active rows. Unless the matrix has a ``partner`` column
    (whose kernel path needs no masks), ``off`` and ``pos`` are its zero and
    positive cells on those rows. The (M, M) buffers are written with
    ``out=`` by the exponent matrix and its backward pass (``e``, ``gram``;
    see ``ExponentMatrix``) and by the ratio kernel (``de``). There are
    three, not one per array: a buffer is reused once its last reader is
    done, which keeps a step's working set small.

    The masked path works in ``w`` and ``p``, one row per active row. With
    every row active ``p`` is ``de``; otherwise ``de`` is zeroed here and
    the kernel copies ``p`` into its active rows, so its inactive rows stay
    zero. (A strided view of those rows would save the copy, but passes over
    a strided view cost more than the copy saves.)
    """

    def __init__(self, a, active):
        m = a.shape[0]
        rows = np.flatnonzero(active)
        self.rows = rows
        self.partner = _partner(a, rows)
        self.e, self.gram, self.de = np.empty((m, m)), np.empty((m, m)), np.empty((m, m))
        self.off = self.pos = self.w = self.p = None
        if self.partner is None and rows.size:
            sub = a if rows.size == m else a[rows]
            self.off = sub == 0
            self.pos = sub > 0
            self.w = np.empty(sub.shape)
            self.p = self.de
            if rows.size < m:
                self.de.fill(0.0)
                self.p = np.empty(sub.shape)


def ratio_terms(e, a, active, eps, log_transform, inv_norm, plan=None):
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
    plan : the ``_LossPlan`` of ``a`` and ``active``, such as an affinity
        matrix's (``AffinityMatrix._plan``); the kernel then reads the active
        rows, ``partner`` and masks from it, and the returned ``de`` is its
        buffer, valid until the plan's next evaluation. Without one, a
        throwaway plan is built, so every returned array is fresh.

    Returns
    -------
    (loss, r, de) where r is (M,) with zeros on inactive rows and de is the
    (M, M) gradient of the loss w.r.t. the exponent matrix.
    """
    if plan is None:
        plan = _LossPlan(a, active)
    m = e.shape[0]
    r = np.zeros(m)
    rows, partner = plan.rows, plan.partner
    if rows.size == 0:
        return 0.0, r, np.zeros((m, m))

    # Row-wise max over the nonzero support, then w = exp(e - max) on the
    # support and 0 off it.
    if partner is not None:
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
        off, w, p = plan.off, plan.w, plan.p
        np.take(e, rows, axis=0, out=w, mode="clip")
        np.copyto(w, -np.inf, where=off)
        mx = w.max(axis=1)
        w -= mx[:, None]
        np.copyto(w, 0.0, where=off)
        np.exp(w, out=w)
        np.copyto(w, 0.0, where=off)
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
    if partner is not None:
        # Built in w's buffer: p_ij = 0 off the partner cells, which are then
        # overwritten with p_ij = w_ij = num.
        np.multiply(num[:, None], w, out=w)
        np.subtract((0.0 * den)[:, None], w, out=w)
        np.divide(w, (den * den)[:, None], out=w)
        np.multiply(dl_dr[:, None], w, out=w)
        w[rows, partner] = dl_dr * ((num * den - num * num) / (den * den))
        return loss, r, w
    # Built in p's buffer, which is de or, with inactive rows, de's active rows.
    np.multiply(p, den[:, None], out=p)
    np.multiply(num[:, None], w, out=w)
    np.subtract(p, w, out=p)
    np.divide(p, (den * den)[:, None], out=p)
    np.multiply(dl_dr[:, None], p, out=p)
    if rows.size < m:
        plan.de[rows] = p
    return loss, r, plan.de
