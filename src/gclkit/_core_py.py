"""The per-anchor ratio-loss kernel, in NumPy, and the loss plan it runs on.

A loss reads only the affinity's support block: the active rows R (the
anchors, rows with a positive cell) against the support columns C (the
columns with a nonzero cell on an active row): the whole (M, M) matrix when
every row is active (type 2, type 4, semi), the (N, N) query x prototype
block for type 3 and the query rows against their partners for type 1. An
``AffinityMatrix`` builds its ``_LossPlan`` on its first evaluation and
holds it, with its float64 panel buffer, while it lives; a call without a
plan builds a throwaway one.

The block is evaluated in row panels of ``max(1, _PANEL_BYTES // (8 C))``
rows, so that one panel of float64 and its row vectors stay in a 2 MiB L2:
64 rows (384 KiB) at M = 768, where the whole block is 4.7 MB. Every
quantity of the loss is row-local except the gradient's column side, so
with a plan ``ratio_terms`` runs the whole evaluation one panel at a time
in the plan's buffer: it writes the panel's exponent product, checks it,
runs the kernel on it and, with the gradient, takes the panel's W to the
exponent's factors, its rows' side written and its columns' side added
over the panels. Only the loss is summed once, over every row. A block of
at most one panel (a square block up to 221 x 221: a whole-matrix layout
up to M = 221, type 3's up to N = 221) runs the whole block's arithmetic.

The kernel takes a panel of the product ``p = x @ yt``, the exponents less
their per-row constant ``rho`` (see ``ExponentMatrix``), and works on it in
place: the row max ``m`` over the support, the shift, ``exp``, the row
sums. ``rho`` cancels in each ratio except through the guard: ``den_i =
num_i + rest_i``, ``num`` the positive cells' sum and ``rest_i`` the
negative cells' sum plus ``eps * exp(-(m_i + rho_i))``. No gradient on the
block is formed: it is ``G = diag(kappa) W``, and the kernel returns
``kappa`` and leaves W in the panel. W holds each negative cell's ``w_ij`` and, in each positive
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

# The byte size of the plan's float64 panel buffer: a module constant, like
# ``evaluate._BLOCK_BYTES``. With a 2 MiB L2, 64-row panels (384 KiB) at
# M = 768 ran faster than panels of 24 to 128 rows.
_PANEL_BYTES = 384 * 1024


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

    ``w`` is the one float64 buffer, one row panel of the block on every
    path: ``max(1, _PANEL_BYTES // (8 C))`` rows, or all R where they fit.
    The loss writes each panel's exponent product into it and the kernel
    turns it into W.
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
        self.w = np.empty((min(r, max(1, _PANEL_BYTES // (8 * max(c, 1)))), c))
        self.off = self.pos = self.neg = None
        if self.partner is None and r:
            self.off, self.pos, self.neg = block == 0, block > 0, block < 0


def ratio_terms(e, a, active, eps, log_transform, inv_norm, plan=None, grad=True):
    """Per-anchor contrastive ratios, the scalar loss, and its gradient.

    For each active anchor row ``i``:

        r_i = sum_{a_ij > 0} exp(e_ij) / (sum_{a_ij != 0} exp(e_ij) + eps)

    evaluated with max-exponent subtraction over the row's nonzero support.
    The loss is ``-inv_norm * sum_i T(r_i)`` with T = identity or log.

    Parameters
    ----------
    e : without a plan, the full (M, M) float64 exponents (similarities are
        exp(e)). With one, the ``ExponentMatrix`` on the plan's block: the
        kernel forms the block a row panel at a time as ``x[rows] @ yt`` in
        the plan's buffer, and ``rho`` enters the guard. Where its ``bound``
        on |e| is not below 1e300, each panel's exponents are checked and a
        non-finite one raises ``FloatingPointError``.
    a : (M, M) int8 or float64 affinity matrix.
    active : (M,) bool, anchors with nonempty positive support.
    eps : denominator guard.
    log_transform : apply log to each ratio before averaging.
    inv_norm : 1 / normalization count.
    plan : the ``_LossPlan`` of ``a`` and ``active``, such as an affinity
        matrix's (``AffinityMatrix._plan``), with at least one active row:
        ``loss`` returns a zero loss before the kernel when there is none.
        Without one, a throwaway plan is built, the block is copied whole
        and every returned array is fresh.
    grad : with a plan, whether to form the gradient; without one, it is.

    Returns
    -------
    (loss, r, grad), r (M,) with zeros on inactive rows. Without a plan,
    grad is G, of ``e``'s shape, zero off the block. With one, it is the
    gradient on the factors for ``ExponentMatrix.backward``: ``(gx, gy,
    grad_rho)``, with ``gx = (W @ y) * kappa`` on the block's rows, ``gy =
    W.T @ (kappa * x)`` on its columns and ``grad_rho`` G's row sums (see the
    module docstring); None without ``grad``.
    """
    r = np.zeros(a.shape[0])
    if plan is None:
        plan = _LossPlan(a, active)
        if not plan.shape[0]:
            return 0.0, r, np.zeros(e.shape)
        cells = np.ix_(plan.rows, plan.cols)
        w = np.array(e if plan.whole else e[cells], dtype=float, order="C")
        ratios, kappa, _ = _panel(w, plan, 0, 0.0, eps, log_transform, inv_norm, True)
        g = np.multiply(kappa[:, None], w, out=w)
        if not plan.whole:
            block, g = g, np.zeros(e.shape)
            g[cells] = block
        r[plan.rows] = ratios
        return _loss(ratios, log_transform, inv_norm), r, g
    x, yt, rho, step = e.x, e.yt, e.rho, plan.w.shape[0]
    check, rows_rho = not e.bound < 1e300, isinstance(rho, np.ndarray)
    gy, panels = None, []
    for r0 in range(0, plan.shape[0], step):
        xs, rho_s = x[r0 : r0 + step], rho[r0 : r0 + step] if rows_rho else rho
        w = np.matmul(xs, yt, out=plan.w[: len(xs)])
        if check and not np.isfinite(w + np.reshape(rho_s, (-1, 1))).all():
            raise FloatingPointError("non-finite exponent in similarity matrix")
        got = _panel(w, plan, r0, rho_s, eps, log_transform, inv_norm, grad)
        if grad:
            ratios, kappa, grho = got
            k = kappa[:, None]
            got = ratios, (w @ yt.T) * k, grho
            on_cols = w.T @ (k * xs)
            gy = on_cols if gy is None else np.add(gy, on_cols, out=gy)
        panels.append(got)
    # The panels' row-side outputs: (ratios, gx, grad_rho), or (ratios,).
    ratios, *rows = panels[0] if len(panels) == 1 else map(np.concatenate, zip(*panels))
    r[plan.rows] = ratios
    return _loss(ratios, log_transform, inv_norm), r, (rows[0], gy, rows[1]) if grad else None


def _loss(ratios, log_transform, inv_norm):
    """The loss, summed once over every active row's ratio."""
    terms = np.log(ratios) if log_transform else ratios
    return -inv_norm * float(terms.sum())


def _panel(w, plan, r0, rho, eps, log_transform, inv_norm, grad):
    """The kernel on the block's rows ``r0 .. r0 + len(w)``, held in ``w``.

    Works in ``w`` in place and returns the rows' ``(ratios, kappa,
    grad_rho)``, leaving W in ``w``; without ``grad``, only ``(ratios,)``.
    ``rho`` is the rows' constant or a scalar.
    """
    n = w.shape[0]
    # Row-wise max over the nonzero support, then w = exp(e - max) on the
    # support and 0 off it, and the positive and negative cells' row sums.
    if plan.partner is not None:
        # The self cells, off the support: (i, r0 + i) of a whole-matrix
        # block, a strided slice of the flat panel; type 3's block has none.
        diag = w.reshape(-1)[r0 :: w.shape[1] + 1] if plan.whole else w[0, :0]
        cells = (plan.partner_cells[0][:n], plan.partner[r0 : r0 + n])
        diag[:] = -np.inf
        mx = w.max(axis=1)
        w -= mx[:, None]
        diag[:] = 0.0
        np.exp(w, out=w)
        diag[:] = 0.0
        num = w[cells]
        w[cells] = 0.0
        rest = w.sum(axis=1)
    else:
        off, pos = plan.off[r0 : r0 + n], plan.pos[r0 : r0 + n]
        np.copyto(w, -np.inf, where=off)
        # initial: a caller's ``active`` may flag only rows without support,
        # which leaves the block no column; such a row's max is -inf.
        mx = w.max(axis=1, initial=-np.inf)
        w -= mx[:, None]
        np.copyto(w, 0.0, where=off)
        np.exp(w, out=w)
        np.copyto(w, 0.0, where=off)
        num = w.sum(axis=1, where=pos)
        rest = w.sum(axis=1, where=plan.neg[r0 : r0 + n])
    eps_term = eps * np.exp(-(mx + rho))
    rest += eps_term  # the denominator's non-positive part
    if grad:
        # W: each positive cell becomes -rest times its share of the numerator.
        if plan.partner is not None:
            w[cells] = -rest  # the partner cell's share is 1
        else:
            # Where every positive cell underflowed, num is 0: divide by 1.
            np.divide(w, np.where(num == 0.0, 1.0, num)[:, None], out=w, where=pos)
            np.multiply(w, -rest[:, None], out=w, where=pos)
    den = num + rest
    ratios = num / den  # den >= 1, the max cell's w, or inf
    if not grad:
        return (ratios,)

    # dr_i/de_ij = w_ij (rest_i [a_ij > 0] - num_i [a_ij < 0]) / den_i^2, so
    # G = diag(kappa) W, and d/drho_i is the eps term's share alone.
    dl_dr = -inv_norm
    if log_transform:
        with np.errstate(divide="ignore"):
            dl_dr = -inv_norm / ratios
    c = dl_dr / den
    kappa = 0.0 * den - c * ratios
    return ratios, kappa, -kappa * eps_term
