"""The per-anchor ratio-loss kernel, in NumPy, and the loss plan it runs on.

A loss reads only the affinity's support block: the active rows R (the
anchors, rows with a positive cell) against the support columns C (the
columns with a nonzero cell on an active row). Every evaluation runs on a
``_LossPlan`` that describes that block, and the exponent matrix, this
kernel and the backward pass compute its (R, C) cells only. With every row
active the block is the whole (M, M) matrix (type 2, type 4, semi); type 3,
the episode layout, is its (N, N) query x prototype block, and type 1 its
(N, N) block of query rows against their partners. An ``AffinityMatrix``
builds its plan on its first evaluation and holds it, with float64 buffers
of the block's shape, while it lives; a call without a plan builds a
throwaway one, reads the block out of a full (M, M) exponent matrix and
returns a full (M, M) gradient, zero off the block.

The kernel has two paths, both on the block. The dense path is taken when
the plan's ``partner`` field is set: every block cell is in the support
except the self cells (row index == column index), and each row has exactly
one positive, at block column ``partner[i]``. That is NT-Xent (type 4 and
strict semi: the whole matrix, with the diagonal as self cells) and type 3
(no self cells). There ``w`` is built without masks, and the numerator is
``w[i, partner[i]]``. Off the partner cell the gradient's first term is
``0 * den``, which the path keeps: it is NaN where ``den`` is inf, so a
diverged row stays loud. The partner cells are then overwritten in O(R).
Every other layout takes the masked path, where ``np.exp`` never sees -inf:
off-support cells are set to 0 before the exponential and zeroed after it,
because NumPy's exp leaves its vectorized path on -inf and runs several
times slower there.

The values agree with the direct whole-matrix formula to rounding, not bit
for bit: a row sum over the block groups its terms differently from one
over M cells with zeros interleaved. The affinity may be int8 (the built-in
layouts) or float: the kernel only compares it with 0, so both give the
same bits.
"""

import numpy as np


def _partner_cells(block, whole):
    """The dense block's partner cells ``(arange(R), partner)``, or None.

    Any block with that pattern of zero and positive cells has them: the
    kernel reads no magnitudes."""
    r, c = block.shape
    # The cheapest exits first: the counts come before the positive mask,
    # which masked layouts never need. count_nonzero, not .all()/.any(),
    # because the reductions' call overhead is most of the cost at small M.
    if whole:
        if np.count_nonzero(block) != r * (r - 1) or np.count_nonzero(block.diagonal()):
            return None
    elif np.count_nonzero(block) != r * c:
        return None
    pos = block > 0
    if np.count_nonzero(pos) != r:
        return None
    cells = (np.arange(r), pos.argmax(axis=1))
    # One positive per row: R in all, and each row's first is positive (a
    # caller's ``active`` may flag a row that has none).
    if np.count_nonzero(pos[cells]) != r:
        return None
    cells[1].flags.writeable = False
    return cells


class _LossPlan:
    """What every loss evaluation on one affinity matrix would otherwise rebuild.

    Built from the (M, M) affinity ``a`` and the (M,) anchor mask ``active``.
    ``rows`` index the active rows and ``cols`` the columns with a nonzero
    cell on one of them, every column when every row is active (``whole``);
    ``shape`` is the block's (R, C). ``partner`` selects the kernel's dense
    path (see the module docstring), whose partner cells are
    ``partner_cells``; otherwise ``off`` and ``pos`` are the block's zero
    and positive cells.

    The buffers have the block's shape. ``e`` and ``gram`` are written with
    ``out=`` by the exponent matrix (see ``ExponentMatrix``), ``de`` by the
    ratio kernel, which returns it as the gradient, and the masked path
    works in ``w`` as well. A buffer is reused once its last reader is done,
    which keeps a step's working set small.
    """

    def __init__(self, a, active):
        # nonzero()[0] and take(), not flatnonzero() and fancy indexing:
        # at small M their call overhead is most of the cost.
        self.rows = active.nonzero()[0]
        self.whole = self.rows.size == a.shape[0]
        if self.whole:
            self.cols, block = self.rows, a
        else:
            block = a.take(self.rows, axis=0)
            self.cols = block.any(axis=0).nonzero()[0]
            block = block.take(self.cols, axis=1)
        self.shape = shape = block.shape
        self.partner_cells = _partner_cells(block, self.whole) if block.size else None
        self.partner = None if self.partner_cells is None else self.partner_cells[1]
        self.e, self.gram, self.de = np.empty(shape), np.empty(shape), np.empty(shape)
        self.off = self.pos = self.w = None
        if self.partner is None and shape[0]:
            self.off = block == 0
            self.pos = block > 0
            self.w = np.empty(shape)


def ratio_terms(e, a, active, eps, log_transform, inv_norm, plan=None):
    """Per-anchor contrastive ratios, the scalar loss, and d(loss)/d(e).

    For each active anchor row ``i``:

        r_i = sum_{a_ij > 0} exp(e_ij) / (sum_{a_ij != 0} exp(e_ij) + eps)

    evaluated with max-exponent subtraction over the row's nonzero support.
    The loss is ``-inv_norm * sum_i T(r_i)`` with T = identity or log.

    Parameters
    ----------
    e : float64 exponent matrix (similarities are exp(e)): the (R, C)
        support block of ``plan``, or the full (M, M) matrix without one.
    a : (M, M) int8 or float64 affinity matrix.
    active : (M,) bool, anchors with nonempty positive support.
    eps : denominator guard.
    log_transform : apply log to each ratio before averaging.
    inv_norm : 1 / normalization count.
    plan : the ``_LossPlan`` of ``a`` and ``active``, such as an affinity
        matrix's (``AffinityMatrix._plan``); the kernel then reads the
        block, ``partner`` and masks from it, and the returned ``de`` is its
        (R, C) buffer, valid until the plan's next evaluation. Without one,
        a throwaway plan is built, and every returned array is fresh.

    Returns
    -------
    (loss, r, de) where r is (M,) with zeros on inactive rows and de is the
    gradient of the loss w.r.t. ``e``, of ``e``'s shape.
    """
    if plan is None:
        plan = _LossPlan(a, active)
        if not plan.whole:
            cells = np.ix_(plan.rows, plan.cols)
            de = np.zeros(e.shape)
            loss, r, de[cells] = ratio_terms(e[cells], a, active, eps, log_transform,
                                             inv_norm, plan)
            return loss, r, de
    r = np.zeros(a.shape[0])
    partner = plan.partner
    if not plan.shape[0]:
        return 0.0, r, plan.de

    # Row-wise max over the nonzero support, then w = exp(e - max) on the
    # support and 0 off it.
    if partner is not None:
        w = plan.de
        if plan.whole:
            np.copyto(w, e)
            diag = w.reshape(-1)[:: w.shape[1] + 1]  # the self cells, off the support
            diag[:] = -np.inf
            mx = w.max(axis=1)
            w -= mx[:, None]
            diag[:] = 0.0
            np.exp(w, out=w)
            diag[:] = 0.0
        else:
            mx = e.max(axis=1)
            np.subtract(e, mx[:, None], out=w)
            np.exp(w, out=w)
        num = w[plan.partner_cells]
    else:
        off, w, p = plan.off, plan.w, plan.de
        np.copyto(w, e)
        np.copyto(w, -np.inf, where=off)
        # initial: a caller's ``active`` may flag only rows without support,
        # which leaves the block no column; such a row's max is -inf.
        mx = w.max(axis=1, initial=-np.inf)
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
    r[plan.rows] = ratios

    if log_transform:
        terms = np.log(ratios)
        with np.errstate(divide="ignore"):
            dl_dr = -inv_norm / ratios
    else:
        terms = ratios
        dl_dr = np.full(ratios.size, -inv_norm)
    loss = -inv_norm * float(terms.sum())

    # dr/de_ij = (p_ij * den - num * w_ij) / den^2 ; negatives have p_ij = 0.
    if partner is not None:
        # Built in w's buffer: p_ij = 0 off the partner cells, which are then
        # overwritten with p_ij = w_ij = num.
        np.multiply(num[:, None], w, out=w)
        np.subtract((0.0 * den)[:, None], w, out=w)
        np.divide(w, (den * den)[:, None], out=w)
        np.multiply(dl_dr[:, None], w, out=w)
        w[plan.partner_cells] = dl_dr * ((num * den - num * num) / (den * den))
        return loss, r, w
    np.multiply(p, den[:, None], out=p)
    np.multiply(num[:, None], w, out=w)
    np.subtract(p, w, out=p)
    np.divide(p, (den * den)[:, None], out=p)
    np.multiply(dl_dr[:, None], p, out=p)
    return loss, r, p
