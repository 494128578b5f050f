"""Affinity matrices over flattened representation batches.

A +1 entry pulls two batch entries together, a -1 pushes them apart, 0 means
the pair does not participate. Rows follow the canonical flattened order of
the batch (labeled entries by (index, slot), then unlabeled). Four built-in
constructors cover the standard supervised/unsupervised loss instances:

  type 1 — disjoint positive/negative pairs (Siamese-style),
  type 2 — one positive and one negative per anchor (triplet-style),
  type 3 — query rows against all second-slot entries (episode/prototypical),
  type 4 — every entry against all others (NT-Xent style),

plus the labeled+unlabeled block layout used for semi-supervised batches.

The built-in layouts are stored as ``np.int8``: their entries are -1, 0 and
+1, and every consumer reads only whether a cell is zero or positive, so an
int8 matrix gives the same loss as its float64 copy while its checks and
comparisons touch an eighth of the bytes. ``AffinityMatrix`` keeps whatever
dtype it is given, so real-valued user matrices work unchanged.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class AffinityMatrix:
    """An (M, M) affinity over the M entries of a batch, in canonical order.

    ``validate`` checks M against the batch size; the group sizes (N, N')
    belong to the batch.

    ``a`` is kept as a read-only view, because the entry check, the anchor
    mask and the loss plan are computed once per matrix: a write through
    ``a`` raises instead of leaving them stale. The caller must not write to
    the array it passed in either; the builders below hand over arrays nobody
    else holds.

    From its second evaluation on, the loss keeps its work buffers in the
    matrix (``_loss_plan``), which holds them while it is alive: three
    float64 (M, M) arrays, 8 * M^2 bytes each, 14 MB at M = 768, plus, for a
    layout without a ``partner``, one or two arrays with a row per active
    row. ``train()`` builds one matrix per run, so its steps reuse them
    instead of allocating and page-faulting fresh ones. Because every
    evaluation writes those buffers, one matrix must not be evaluated from
    two threads at once.
    """

    a: np.ndarray  # (M, M)

    def __post_init__(self):
        a = np.asarray(self.a).view()
        a.flags.writeable = False
        object.__setattr__(self, "a", a)

    @property
    def size(self):
        return self.a.shape[0]

    @cached_property
    def ternary(self):
        """True if every entry is -1, 0 or +1."""
        return np.array_equal(np.sign(self.a), self.a)

    @cached_property
    def active(self):
        """Read-only (M,) bool: rows with nonempty positive support."""
        active = (self.a > 0).any(axis=1)
        active.flags.writeable = False
        return active

    @cached_property
    def partner(self):
        """Read-only (M,) column of each row's only positive, or None.

        Set when the support of every row is every off-diagonal cell and
        exactly one of them is positive: the NT-Xent layout of type 4 and
        strict semi, or any matrix with that pattern of zero and positive
        cells (the kernel reads no magnitudes). The ratio kernel then needs
        no masks (see ``_core_py``). Found from the entries, once per matrix.
        """
        a = self.a
        m = a.shape[0]
        # count_nonzero, not .all()/.any(): this runs on every fresh matrix,
        # where the reductions' call overhead is most of the cost. The counts
        # come before the positive mask, which other layouts never need.
        if (m == 0 or a.shape != (m, m) or np.count_nonzero(a) != m * (m - 1)
                or np.count_nonzero(a.diagonal()) or np.count_nonzero(self.active) != m):
            return None
        pos = a > 0
        if np.count_nonzero(pos) != m:
            return None
        partner = pos.argmax(axis=1)
        partner.flags.writeable = False
        return partner

    def _loss_plan(self):
        """The loss's reusable state for this matrix (``_LossPlan``), or None.

        None on the first evaluation, which allocates as an evaluation without
        a plan does: a matrix evaluated once, such as an engine call's fresh
        matrix, pays nothing for a plan it would not reuse. The second
        evaluation builds the plan, and every later one reuses it.
        """
        d = self.__dict__
        if "_plan" not in d:
            d["_plan"] = None
        elif d["_plan"] is None:
            d["_plan"] = _LossPlan(self)
        return d["_plan"]


class _LossPlan:
    """What every loss evaluation on one matrix would otherwise rebuild.

    ``rows`` are the active rows. Unless the matrix has a ``partner`` column
    (whose kernel path needs no masks), ``off`` and ``pos`` are its zero and
    positive cells on those rows. The (M, M) buffers are written with
    ``out=`` by the exponent matrix and its backward pass (``e``, ``gram``;
    see ``ExponentMatrix``) and by the ratio kernel (``de``; see
    ``_core_py``). There are three, not one per array: a buffer is reused
    once its last reader is done, which keeps a step's working set small.

    The masked path works in ``w`` and ``p``, one row per active row. With
    every row active ``p`` is ``de``; otherwise (``scatter``) ``de`` is
    zeroed here and the kernel copies ``p`` into its active rows, so its
    inactive rows stay zero. (A strided view of those rows would save the
    copy, but passes over a strided view cost more than the copy saves.)

    The plan holds no reference to its matrix, so the two are freed together
    without the cycle collector.
    """

    def __init__(self, matrix):
        a = matrix.a
        m = a.shape[0]
        rows = np.flatnonzero(matrix.active)
        self.rows = rows
        self.e, self.gram, self.de = np.empty((m, m)), np.empty((m, m)), np.empty((m, m))
        self.off = self.pos = self.w = self.p = None
        self.scatter = False
        if matrix.partner is None and rows.size:
            sub = a if rows.size == m else a[rows]
            self.off = sub == 0
            self.pos = sub > 0
            self.w = np.empty(sub.shape)
            self.scatter = rows.size < m
            if self.scatter:
                self.de.fill(0.0)
            self.p = np.empty(sub.shape) if self.scatter else self.de


def _class_diagonal(a, row, col, count):
    """View of ``a[row + 2t, col + 2t]`` for t = 0..count-1.

    Stepping one class moves two rows and two columns, so in the flattened
    matrix these cells lie on a single strided slice.
    """
    step = 2 * a.shape[0] + 2
    start = row * a.shape[0] + col
    return a.reshape(-1)[start : start + step * count : step]


def type1_affinity(n):
    """Disjoint pairs: (i,1)-(i,2) positive, (i,2)-(i+1 mod N,1) negative."""
    if n < 2:
        raise ValueError("type 1 needs N >= 2 (no negative pair otherwise)")
    a = np.zeros((2 * n, 2 * n), dtype=np.int8)
    _class_diagonal(a, 0, 1, n)[:] = 1
    _class_diagonal(a, 1, 2, n - 1)[:] = -1
    a[-1, 0] = -1  # (N,2)-(1,1) closes the cycle
    return AffinityMatrix(a)


def type2_affinity(n):
    """Triplets: cross-slot same class positive, cross-slot next class negative."""
    if n < 2:
        raise ValueError("type 2 needs N >= 2 (no negative pair otherwise)")
    a = np.zeros((2 * n, 2 * n), dtype=np.int8)
    _class_diagonal(a, 0, 1, n)[:] = 1
    _class_diagonal(a, 1, 0, n)[:] = 1
    _class_diagonal(a, 0, 3, n - 1)[:] = -1
    _class_diagonal(a, 1, 2, n - 1)[:] = -1
    a[-2, 1] = -1  # class N against class 1 closes the cycle
    a[-1, 0] = -1
    return AffinityMatrix(a)


def type3_affinity(n):
    """Episode layout: each slot-1 query vs all slot-2 entries, own class positive."""
    if n < 1:
        raise ValueError("N >= 1 required")
    a = np.zeros((2 * n, 2 * n), dtype=np.int8)
    a[0::2, 1::2] = -1
    _class_diagonal(a, 0, 1, n)[:] = 1
    return AffinityMatrix(a)


def _type4(n):
    a = np.full((2 * n, 2 * n), -1, dtype=np.int8)
    _class_diagonal(a, 0, 1, n)[:] = 1
    _class_diagonal(a, 1, 0, n)[:] = 1
    np.fill_diagonal(a, 0)
    return a


def type4_affinity(n):
    """NT-Xent layout: own other view positive, self zero, everything else negative."""
    if n < 1:
        raise ValueError("N >= 1 required")
    return AffinityMatrix(_type4(n))


def semi_affinity(n_labeled, n_unlabeled, relaxed_unlabeled=False):
    """Block layout for mixed batches.

    Labeled-labeled and unlabeled-unlabeled blocks follow the type-4 layout;
    every cross-group pair is negative, so the strict layout is the type-4
    layout over all N + N' samples. With ``relaxed_unlabeled`` (and labeled
    samples present), distinct unlabeled samples are ignored (0) instead of
    repelled (-1).
    """
    if n_labeled < 0 or n_unlabeled < 0 or n_labeled + n_unlabeled < 1:
        raise ValueError("need at least one sample overall")
    a = _type4(n_labeled + n_unlabeled)
    if relaxed_unlabeled and n_labeled:
        block = a[2 * n_labeled:, 2 * n_labeled:]
        block[block < 0] = 0
    return AffinityMatrix(a)


def validate(affinity, batch, allow_general=False):
    """Check matrix/batch consistency and return the checked matrix.

    ``allow_general`` admits real-valued affinities (complete-form evaluation);
    otherwise entries must be in {-1, 0, +1}. The shape and size checks run on
    every call; the entry check comes from the matrix's memo, and so does
    ``.active``, the mask of anchors with nonempty positive support (the
    others contribute no ratio term).
    """
    a = affinity.a
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("affinity must be a square matrix")
    if batch is not None and a.shape[0] != batch.size:
        raise ValueError(f"affinity size {a.shape[0]} != batch size {batch.size}")
    if not allow_general and not affinity.ternary:
        raise ValueError("affinity entries must be in {-1, 0, +1}")
    return affinity
