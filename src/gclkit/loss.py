"""Ratio-form contrastive loss over an affinity matrix, plus reference losses.

The engine evaluates, per active anchor a,

    r_a = sum_b max(0, alpha_ab) * s_ab / (sum_b |alpha_ab| * s_ab + eps)

with s_ab = exp(e_ab) from a similarity kernel, and returns
loss = -(1/M) * sum_a T(r_a). Positive affinities therefore get attracted
when the loss is minimized. The per-anchor sums are computed with
max-exponent subtraction, so arbitrarily large exponents are safe. Very
negative ones are not: once a row's largest exponent is below about -700,
the stabilized guard ``eps * exp(-max)`` overflows, the ratio collapses to 0
and the gradient turns NaN (``train()`` stops on it).

``oracle_episode`` and ``oracle_ntxent`` are deliberately naive direct
implementations of the prototypical episode loss and the two-view NT-Xent
ratio loss; the test suite holds the engine to them exactly. The complete-form
evaluator generalizes the anchor aggregation to arbitrary pair scorers, which
is enough to reconstruct triplet and Siamese contrastive losses.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from ._core_py import ratio_terms
from .affinity import semi_affinity, validate

NORMALIZATIONS = ("active-count", "fixed-2n")
TRANSFORMS = ("negated-ratio", "negated-log-ratio")
PSI_CHOICES = ("identity", "ramp-margin", "negative-log")


@dataclass
class GclOptions:
    epsilon: float = 1e-12
    anchor_normalization: str = "active-count"
    ratio_transform: str = "negated-ratio"

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.anchor_normalization not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization {self.anchor_normalization!r}")
        if self.ratio_transform not in TRANSFORMS:
            raise ValueError(f"unknown ratio transform {self.ratio_transform!r}")


@dataclass
class LossReport:
    loss: float
    per_anchor: np.ndarray  # ratio per entry, 0 on inactive anchors
    active: np.ndarray  # bool per entry
    verbatim: float  # un-negated mean ratio over all 2(N+N') rows (diagnostic)
    all_inactive: bool = False
    grad_z: np.ndarray = None
    grad_kernel: dict = None

    @property
    def mean_ratio(self):
        r = self.per_anchor[self.active]
        return float(r.sum() / r.size) if r.size else 0.0  # np.mean's arithmetic, less overhead


def _evaluate(batch, affinity, kernel_params, options, with_grad):
    options = options or GclOptions()
    mask = validate(affinity, batch)
    m_total = batch.size
    if mask.count == 0:
        report = LossReport(
            loss=0.0,
            per_anchor=np.zeros(m_total),
            active=mask.active,
            verbatim=0.0,
            all_inactive=True,
        )
        if with_grad:
            report.grad_z = np.zeros_like(batch.z)
            report.grad_kernel = {}
        return report

    em = kernels.exponent_matrix(batch, kernel_params)
    if not np.all(np.isfinite(em.e)):
        raise FloatingPointError("non-finite exponent in similarity matrix")
    if options.anchor_normalization == "active-count":
        norm = mask.count
    else:
        norm = m_total
    log_transform = options.ratio_transform == "negated-log-ratio"
    loss, r, de = ratio_terms(
        em.e, affinity.a, mask.active, options.epsilon, log_transform, 1.0 / norm
    )
    report = LossReport(
        loss=float(loss),
        per_anchor=r,
        active=mask.active,
        verbatim=float(r.sum() / m_total),
    )
    if with_grad:
        report.grad_z, report.grad_kernel = em.backward(de)
    return report


def gcl(batch, affinity, kernel_params, options=None):
    """Value-only evaluation of the generalized ratio loss."""
    return _evaluate(batch, affinity, kernel_params, options, with_grad=False)


def gcl_grad(batch, affinity, kernel_params, options=None):
    """Same value as gcl, with analytic gradients w.r.t. embeddings and kernel."""
    return _evaluate(batch, affinity, kernel_params, options, with_grad=True)


def gcl_semi(batch, affinity=None, kernel_params=None, options=None,
             relaxed_unlabeled=False, with_grad=False):
    """Ratio loss on a mixed labeled/unlabeled batch.

    Builds the block affinity from the batch's (N, N') if none is given.
    Degenerates bit-for-bit to the single-group evaluation when either group
    is empty.
    """
    if affinity is None:
        affinity = semi_affinity(batch.n_labeled, batch.n_unlabeled, relaxed_unlabeled)
    return _evaluate(batch, affinity, kernel_params, options, with_grad=with_grad)


@dataclass
class CompleteFormSpec:
    """Anchor-aggregated pair-scorer loss.

    ``scorer(z, z', alpha)`` gives the contribution of one ordered pair;
    ``psi`` post-processes each anchor's summed score; cost orientation means
    the result is minimized as-is, reward orientation negates it.
    """

    scorer: callable
    psi: str = "identity"
    margin: float = 0.0
    orientation: str = "cost"

    def __post_init__(self):
        if self.psi not in PSI_CHOICES:
            raise ValueError(f"unknown psi {self.psi!r}")
        if self.margin < 0:
            raise ValueError("margin must be nonnegative")
        if self.orientation not in ("cost", "reward"):
            raise ValueError("orientation must be 'cost' or 'reward'")
        if self.psi == "ramp-margin" and self.orientation != "cost":
            raise ValueError("ramp-margin only makes sense as a cost")


def complete_form(batch, affinity, spec):
    """Evaluate the anchor-aggregated form; anchors are rows with any nonzero entry."""
    validate(affinity, batch, allow_general=True)
    a = affinity.a
    active = (a != 0).any(axis=1)
    m = int(active.sum())
    per_anchor = np.zeros(batch.size)
    if m == 0:
        return LossReport(0.0, per_anchor, active, 0.0, all_inactive=True)
    z = batch.z
    for i in np.flatnonzero(active):
        acc = 0.0
        for j in range(batch.size):
            if a[i, j] != 0.0:
                acc += spec.scorer(z[i], z[j], a[i, j])
        if spec.psi == "ramp-margin":
            acc = max(0.0, acc + spec.margin)
        elif spec.psi == "negative-log":
            acc = -math.log(acc)
        per_anchor[i] = acc
    sigma = 1.0 if spec.orientation == "cost" else -1.0
    loss = sigma * float(per_anchor[active].sum()) / m
    return LossReport(loss, per_anchor, active, float(per_anchor.sum() / batch.size))


def oracle_episode(batch):
    """Direct prototypical episode loss: exp(-squared distance) ratios."""
    n = batch.n_labeled
    q = batch.z[0::2]  # queries, slot 1
    p = batch.z[1::2]  # prototypes, slot 2
    total = 0.0
    for i in range(n):
        num = math.exp(kernels.sqeuclid_exponent(q[i], p[i]))
        den = 0.0
        for j in range(n):
            den += math.exp(kernels.sqeuclid_exponent(q[i], p[j]))
        total += num / den
    return -total / n


def oracle_ntxent(batch, kernel_params):
    """Direct two-view contrastive ratio loss, averaged over both view orders."""
    n = batch.n_unlabeled if batch.n_unlabeled else batch.n_labeled
    z1 = batch.z[0::2]
    z2 = batch.z[1::2]

    def s(x, y):
        return math.exp(kernels.scalar_exponent(x, y, kernel_params))

    def ell(za, zb):
        total = 0.0
        for i in range(n):
            num = s(za[i], zb[i])
            den = sum(s(za[i], zb[j]) for j in range(n))
            den += sum(s(za[i], za[j]) for j in range(n) if j != i)
            total += num / den
        return -total / n

    return 0.5 * (ell(z1, z2) + ell(z2, z1))


def finite_diff_grad(f, x, h=1e-4):
    """Central-difference gradient of scalar f at flat array x."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        g.flat[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def max_rel_err(a, b, floor=1e-8):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def finite_diff_check(f, grad, x, h=1e-4):
    """Worst relative disagreement between analytic ``grad`` and central differences."""
    if h <= 0:
        raise ValueError("h must be positive")
    return max_rel_err(np.asarray(grad, float), finite_diff_grad(f, x, h))
