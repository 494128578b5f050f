"""The per-anchor ratio-loss kernel, in NumPy, and the loss plan it runs on.

A loss reads only the affinity's support block: the active rows R (the
anchors, rows with a positive cell) against the support columns C (the
columns with a nonzero cell on an active row): the whole (M, M) matrix when
every row is active (type 2, type 4, semi), the (N, N) query x prototype
block for type 3 and the query rows against their partners for type 1. An
``AffinityMatrix`` builds its ``_LossPlan`` on its first evaluation and
holds it, with its float64 buffer, while it lives; a call without a plan
builds a throwaway one.

The kernel takes the block as ``p``, the exponents less their per-row
constant ``rho`` (see ``ExponentMatrix``), and works in the plan's buffer in
place: the row max ``m`` over the support, the shift, ``exp``, the row sums.
``rho`` cancels in each ratio except through the guard: ``den_i = num_i +
rest_i``, ``num`` the positive cells' sum and ``rest_i`` the negative cells'
sum plus ``eps * exp(-(m_i + rho_i))``. No gradient on the block is formed:
it is ``G = diag(kappa) W``, and the kernel returns ``kappa`` and leaves W in
the buffer. W holds each negative cell's ``w_ij`` and, in each positive
cell, ``-rest_i`` times the cell's share ``w_ij / num_i`` of the numerator
(the share is taken first, so it is at most 1 and cannot overflow; a row
whose positive cells all underflowed keeps them 0). A positive cell's term
carries ``rest`` and a negative cell's ``num``, each summed on its own, so
no cell is a difference of two large terms: a row whose ratio is near 1
keeps its digits. ``kappa`` holds a ``0 * den`` term, NaN where ``den`` is
inf, so a diverged row's gradient stays NaN: loud.

The dense path is taken when the plan's ``partner`` is set: every block
cell is in the support except the self cells (row index == column index),
and each row has exactly one positive, at block column ``partner[i]``. That
is NT-Xent (type 4 and strict semi: the whole matrix, with the diagonal as
self cells) and type 3 (no self cells). There W is built without masks, and
a partner cell's share is 1, so it is written ``-rest``. Every other layout
takes the masked path, where ``np.exp`` never sees -inf: off-support cells
are set to 0 before the exponential and zeroed after it, because NumPy's exp
leaves its vectorized path on -inf and runs several times slower there.

The values agree with the direct whole-matrix formula to rounding, not bit
for bit. The affinity may be int8 (the built-in layouts) or float: the
kernel only compares it with 0, so both give the same bits.
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
    ``partner_cells``; otherwise ``off``, ``pos`` and ``neg`` mask the
    block's zero, positive and negative cells.

    ``w`` is the one float64 buffer, of the block's shape on every path: the
    exponent matrix writes its product into it and the kernel turns it into W.
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
        self.shape = (r, c) = block.shape
        self.partner_cells = _partner_cells(block, self.whole) if block.size else None
        self.partner = None if self.partner_cells is None else self.partner_cells[1]
        self.w = np.empty((r, c))
        self.off = self.pos = self.neg = None
        if self.partner is None and r:
            self.off, self.pos, self.neg = block == 0, block > 0, block < 0


def ratio_terms(e, a, active, eps, log_transform, inv_norm, plan=None, rho=0.0):
    """Per-anchor contrastive ratios, the scalar loss, and its gradient.

    For each active anchor row ``i``:

        r_i = sum_{a_ij > 0} exp(e_ij) / (sum_{a_ij != 0} exp(e_ij) + eps)

    evaluated with max-exponent subtraction over the row's nonzero support.
    The loss is ``-inv_norm * sum_i T(r_i)`` with T = identity or log.

    Parameters
    ----------
    e : float64 exponents (similarities are exp(e + rho)): the (R, C)
        support block of ``plan``, or the full (M, M) matrix without one.
    a : (M, M) int8 or float64 affinity matrix.
    active : (M,) bool, anchors with nonempty positive support.
    eps : denominator guard.
    log_transform : apply log to each ratio before averaging.
    inv_norm : 1 / normalization count.
    plan : the ``_LossPlan`` of ``a`` and ``active``, such as an affinity
        matrix's (``AffinityMatrix._plan``). ``e`` is copied into ``plan.w``
        unless it is that buffer, and W is left there. Without one, a
        throwaway plan is built and every returned array is fresh.
    rho : the per-row constant of the block's rows, or a scalar.

    Returns
    -------
    (loss, r, grad), r (M,) with zeros on inactive rows. With a plan, grad
    is ``(kappa, grad_rho)`` on the block's rows (see the module docstring),
    ``grad_rho`` being G's row sums. Without one, grad is G, of ``e``'s
    shape, zero off the block.
    """
    if plan is None:
        plan = _LossPlan(a, active)
        cells = np.ix_(plan.rows, plan.cols)
        loss, r, (kappa, _) = ratio_terms(e if plan.whole else e[cells], a, active,
                                          eps, log_transform, inv_norm, plan)
        g = np.multiply(kappa[:, None], plan.w, out=plan.w)  # the plan is throwaway
        if not plan.whole:
            block, g = g, np.zeros(e.shape)
            g[cells] = block
        return loss, r, g
    r = np.zeros(a.shape[0])
    partner, w = plan.partner, plan.w
    if not plan.shape[0]:
        return 0.0, r, (r[:0],) * 2
    if e is not w:
        np.copyto(w, e)

    # Row-wise max over the nonzero support, then w = exp(e - max) on the
    # support and 0 off it, and the positive and negative cells' row sums.
    if partner is not None:
        # The self cells, off the support; type 3's block has none.
        diag = w.reshape(-1)[:: w.shape[1] + 1] if plan.whole else w[0, :0]
        diag[:] = -np.inf
        mx = w.max(axis=1)
        w -= mx[:, None]
        diag[:] = 0.0
        np.exp(w, out=w)
        diag[:] = 0.0
        num = w[plan.partner_cells]
        w[plan.partner_cells] = 0.0
        rest = w.sum(axis=1)
    else:
        off, pos = plan.off, plan.pos
        np.copyto(w, -np.inf, where=off)
        # initial: a caller's ``active`` may flag only rows without support,
        # which leaves the block no column; such a row's max is -inf.
        mx = w.max(axis=1, initial=-np.inf)
        w -= mx[:, None]
        np.copyto(w, 0.0, where=off)
        np.exp(w, out=w)
        np.copyto(w, 0.0, where=off)
        num = w.sum(axis=1, where=pos)
        rest = w.sum(axis=1, where=plan.neg)
    eps_term = eps * np.exp(-(mx + rho))
    rest += eps_term  # the denominator's non-positive part
    # W: each positive cell becomes -rest times its share of the numerator.
    if partner is not None:
        w[plan.partner_cells] = -rest  # the partner cell's share is 1
    else:
        # Where every positive cell underflowed, num is 0: divide by 1.
        np.divide(w, np.where(num == 0.0, 1.0, num)[:, None], out=w, where=pos)
        np.multiply(w, -rest[:, None], out=w, where=pos)
    den = num + rest

    ratios = num / den  # den >= 1, the max cell's w, or inf
    r[plan.rows] = ratios

    terms, dl_dr = ratios, -inv_norm
    if log_transform:
        terms = np.log(ratios)
        with np.errstate(divide="ignore"):
            dl_dr = -inv_norm / ratios
    loss = -inv_norm * float(terms.sum())

    # dr_i/de_ij = w_ij (rest_i [a_ij > 0] - num_i [a_ij < 0]) / den_i^2, so
    # G = diag(kappa) W, and d/drho_i is the eps term's share alone.
    c = dl_dr / den
    kappa = 0.0 * den - c * ratios
    return loss, r, (kappa, -kappa * eps_term)
