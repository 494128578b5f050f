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

A matrix's first loss evaluation builds its loss plan (``_core_py``), and
every later one reuses it. The matrix holds the plan while it lives: the
support block (the active rows against the columns with a nonzero cell on
them), the ``partner`` column of a dense block (NT-Xent, type 3) or the
block's masks, and one float64 buffer, ``_LossPlan.w``, of one row panel of
the block on every path: ``max(1, _PANEL_BYTES // (8 C))`` rows of the C
columns, or all R where they fit. At M = 768 a whole-matrix layout's block
is 4.7 MB and its buffer 64 rows, 384 KiB; type 3's (N, N) block is one
panel up to N = 221. ``train()`` builds one matrix per run, so its steps
reuse the buffer instead of allocating a fresh one. Because every
evaluation writes that buffer, one matrix must not be evaluated from two
threads at once.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._core_py import _LossPlan


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
    def _plan(self):
        """The loss plan of this matrix (``_core_py._LossPlan``)."""
        return _LossPlan(self.a, self.active)


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
