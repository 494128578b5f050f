"""The NumPy ratio kernel against its direct, unfused formulation.

``reference_ratio_terms`` is the straightforward whole-matrix evaluation:
every row, -inf outside the support fed to ``exp``, one temporary per
operation. Its gradient is ``r = num / (num + rest)`` differentiated with
the positive sum ``num`` and the non-positive part ``rest`` (negative cells
plus eps) summed apart, as the kernel does, so that a row whose ratio is
near 1 keeps its digits (a test below holds both to a 50-digit
evaluation). The kernel evaluates only the affinity's support block (the
active rows x the columns with a nonzero cell on them), so its row sums
group their terms differently and it must agree with the reference within
``RTOL`` relative (see ``_close``), not bit for bit. That holds on every
layout, kernel, transform and embedding scale, with the affinity as int8
(the built-in layouts) or float64, on both of its paths: the mask-free
dense one of a plan with a ``partner`` column (type 3, type 4, strict semi)
and the masked one of every other layout. Where the stabilizer overflows
the outputs hold inf and NaN; those cases are held to stay non-finite
(loud), not to the reference's bits.

Every evaluation runs on a loss plan: a matrix builds its own
(``AffinityMatrix._plan``) on its first evaluation and keeps it, with its
float64 buffer of one row panel of the block, while it lives, and a call of
the kernel without one builds a throwaway plan. ``reference_gcl_grad`` is
the evaluation written directly over the whole matrix, with every array
allocated anew; ``gcl_grad`` on a fresh matrix and on one matrix reused
across batches and kernels must agree with it within ``RTOL``, in one panel
and in many (``_PANEL_BYTES`` is lowered to split small blocks), no report
may share memory with another report or with the plan, and an evaluation
after a matrix's first allocates no array of the block's size. Past one
panel no evaluation does: the check for non-finite exponents and a
diverged row's NaN reach every panel.
"""

import decimal
import tracemalloc
import warnings

import numpy as np
import pytest

from gclkit import _core_py
from gclkit import affinity as aff
from gclkit import batch as batching
from gclkit import loss as losses
from gclkit.kernels import ExponentMatrix, KernelParams


def reference_ratio_terms(e, a, active, eps, log_transform, inv_norm):
    m = e.shape[0]
    r = np.zeros(m)
    de = np.zeros((m, m))
    if not np.any(active):
        return 0.0, r, de

    pos = a > 0.0
    nz = a != 0.0
    act = np.asarray(active, dtype=bool)

    shifted = np.where(nz, e, -np.inf)
    mx = np.max(shifted, axis=1)
    mx[~act] = 0.0

    w = np.exp(np.where(nz, e - mx[:, None], -np.inf))
    w[~nz] = 0.0
    p = np.where(pos, w, 0.0)

    num = p.sum(axis=1)
    rest = (w - p).sum(axis=1) + eps * np.exp(-mx)  # the non-positive part
    den = num + rest

    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = num / den
    ratios[~act] = 0.0
    r[:] = ratios

    if log_transform:
        terms = np.log(ratios[act])
        with np.errstate(divide="ignore"):
            dl_dr = -inv_norm / ratios
        dl_dr[~act] = 0.0
    else:
        terms = ratios[act]
        dl_dr = np.full(m, -inv_norm)
    loss = -inv_norm * float(terms.sum())

    dr = (p * rest[:, None] - (w - p) * num[:, None]) / (den * den)[:, None]
    dr[~act] = 0.0
    de[:] = dl_dr[:, None] * dr
    de[~act] = 0.0
    return loss, r, de


def _bit_equal(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return (x.shape == y.shape and np.array_equal(x, y, equal_nan=True)
            and np.array_equal(np.signbit(x), np.signbit(y)))


RTOL = 1e-12


def _close(got, want, rtol=RTOL, floor=0.0):
    """Equal within ``rtol`` of the largest finite magnitude of ``want`` (or
    of ``floor``, if larger), with NaN and inf (and their signs) in the same
    cells."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    finite = np.isfinite(want)
    if got.shape != want.shape or not np.array_equal(np.isfinite(got), finite):
        return False
    if not np.array_equal(got[~finite], want[~finite], equal_nan=True):
        return False
    err = np.abs(got[finite] - want[finite])
    return bool(np.all(err <= rtol * np.abs(want[finite]).max(initial=floor)))


def _assert_close(e, a, active, log_transform, eps=1e-12):
    """The kernel against the reference. Where the reference's gradient is
    non-finite (an overflowing stabilizer), the kernel's must be non-finite
    on the same support cells; off the support it may read 0."""
    inv_norm = 1.0 / max(1, int(np.count_nonzero(active)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = reference_ratio_terms(e, a, active, eps, log_transform, inv_norm)
        got = _core_py.ratio_terms(e, a, active, eps, log_transform, inv_norm)
    assert _close(got[0], want[0]) and _close(got[1], want[1])
    de, want_de = got[2], want[2].copy()
    loud = ~np.isfinite(want_de)
    assert not np.isfinite(de[loud & (a != 0)]).any()
    want_de[loud & (a == 0)] = de[loud & (a == 0)]
    assert _close(de, want_de)
    return got


def _active(a):
    return (a > 0.0).any(axis=1).astype(np.uint8)


def _layouts(n):
    out = {}
    if n >= 2:
        out["type1"] = aff.type1_affinity(n)
        out["type2"] = aff.type2_affinity(n)
    out["type3"] = aff.type3_affinity(n)
    out["type4"] = aff.type4_affinity(n)
    n_unl = max(1, n // 3)
    out["semi"] = aff.semi_affinity(n - n_unl, n_unl)
    out["semi-relaxed"] = aff.semi_affinity(n - n_unl, n_unl, relaxed_unlabeled=True)
    return out


def _exponents(rng, kind, scale, m, d=8):
    proj = rng.normal(size=(d, d)) if kind == "cosine-temp" else None
    return ExponentMatrix(rng.normal(0.0, scale, size=(m, d)), KernelParams(kind, proj=proj)).e


@pytest.mark.parametrize("n", [1, 2, 5, 13])
@pytest.mark.parametrize("kind", ["affine-cosine", "sq-euclid"])
@pytest.mark.parametrize("scale", [0.3, 3.0, 30.0])
@pytest.mark.parametrize("log_transform", [False, True])
def test_matches_reference_over_grid(n, kind, scale, log_transform):
    rng = np.random.default_rng([n, int(scale * 10), len(kind)])
    for name, layout in _layouts(n).items():
        e = _exponents(rng, kind, scale, layout.size)
        for a in (layout.a, layout.a.astype(float)):
            active = _active(layout.a)
            # Types 1-2 and relaxed semi keep the masked path covered. With
            # one unlabeled sample, relaxed semi has no negative to relax and
            # is the strict layout.
            dense = name in ("type3", "type4", "semi") or (name == "semi-relaxed" and n // 3 < 2)
            assert (_core_py._LossPlan(a, active).partner is None) != dense, name
            _assert_close(e, a, active, log_transform)


def _decimal_ratio_grad(e, a, active, eps, log_transform, inv_norm):
    """d(loss)/d(e) evaluated in 50-digit decimal arithmetic, then rounded."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        g = np.zeros(e.shape)
        for i in np.flatnonzero(active):
            s = {j: decimal.Decimal(float(e[i, j])).exp() for j in np.flatnonzero(a[i])}
            num = sum((s[j] for j in s if a[i, j] > 0), decimal.Decimal(0))
            den = sum(s.values(), decimal.Decimal(0)) + decimal.Decimal(eps)
            r = num / den
            dl_dr = decimal.Decimal(-inv_norm) / (r if log_transform else 1)
            for j in s:
                g[i, j] = float(dl_dr * s[j] * ((a[i, j] > 0) - r) / den)
        return g


@pytest.mark.parametrize("log_transform", [False, True])
def test_gradient_keeps_its_digits_where_the_ratio_is_near_one(log_transform):
    # Type 1's query rows have one positive and no negative, so r = 1 - 1e-12
    # and each cell's gradient is the eps term's share alone; at N = 1 every
    # layout's ratio is near 1. A positive cell computed as p * den - num * w
    # loses up to 1e-4 of it here; the kernel and the reference sum the
    # positive and the non-positive parts of the denominator apart.
    rng = np.random.default_rng(27)
    for n, kind, scale in ((1, "sq-euclid", 0.3), (1, "affine-cosine", 3.0),
                           (5, "sq-euclid", 0.3), (5, "affine-cosine", 3.0)):
        for name, layout in _layouts(n).items():
            e = _exponents(rng, kind, scale, layout.size)
            a, active = layout.a, _active(layout.a)
            inv_norm = 1.0 / int(np.count_nonzero(active))
            want = _decimal_ratio_grad(e, a, active, 1e-12, log_transform, inv_norm)
            for got in (reference_ratio_terms(e, a, active, 1e-12, log_transform, inv_norm),
                        _core_py.ratio_terms(e, a, active, 1e-12, log_transform, inv_norm)):
                assert _close(got[2], want, rtol=1e-14), (n, kind, name)


def _dense_layouts():
    """Every layout with a partner column: type 4 and strict semi (the whole
    matrix), type 3 (its query x prototype block), and float matrices of the
    same patterns whose partners are not adjacent."""
    out = {f"type4/N{n}": aff.type4_affinity(n) for n in (1, 2, 5, 13)}
    out.update({f"type3/N{n}": aff.type3_affinity(n) for n in (1, 2, 5, 13)})
    for n, n_unl in ((1, 1), (2, 3), (4, 2), (13, 4), (7, 20)):
        out[f"semi/N{n}+{n_unl}"] = aff.semi_affinity(n, n_unl)
    rng = np.random.default_rng(11)
    m = 10
    perm = rng.permutation(m)
    partner = np.empty(m, dtype=int)
    partner[perm[0::2]], partner[perm[1::2]] = perm[1::2], perm[0::2]
    a = -rng.uniform(0.5, 2.0, size=(m, m))
    a[np.arange(m), partner] = rng.uniform(0.5, 2.0, size=m)
    np.fill_diagonal(a, 0.0)
    out["float/shuffled"] = aff.AffinityMatrix(a)
    # An episode on scattered queries and prototypes.
    queries, protos = perm[:4], perm[4:9]
    a = np.zeros((m, m))
    a[np.ix_(queries, protos)] = -rng.uniform(0.5, 2.0, size=(4, 5))
    a[queries, protos[rng.permutation(5)[:4]]] = rng.uniform(0.5, 2.0, size=4)
    out["float/scattered-episode"] = aff.AffinityMatrix(a)
    return out


@pytest.mark.parametrize("kind", ["affine-cosine", "sq-euclid", "cosine-temp"])
@pytest.mark.parametrize("scale", [0.3, 3.0, 40.0])
@pytest.mark.parametrize("log_transform", [False, True])
def test_partner_path_matches_reference(kind, scale, log_transform):
    rng = np.random.default_rng([int(scale * 10), len(kind)])
    for name, layout in _dense_layouts().items():
        e = _exponents(rng, kind, scale, layout.size)
        for a in (layout.a, layout.a.astype(float)):
            assert _core_py._LossPlan(a, layout.active).partner is not None, name
            _assert_close(e, a, layout.active, log_transform)


@pytest.mark.parametrize("log_transform", [False, True])
def test_partner_path_row_max_below_exp_range(log_transform):
    # sq-euclid at scale 40: every off-diagonal exponent is far below -709,
    # so eps * exp(-max) overflows; the diagonal's 0 must not count as the
    # max. Every active row's ratio collapses to 0 and its gradient is NaN.
    rng = np.random.default_rng(12)
    for layout in (aff.type4_affinity(4), aff.semi_affinity(3, 2), aff.type3_affinity(4)):
        e = _exponents(rng, "sq-euclid", 40.0, layout.size)
        off_diag = e[~np.eye(layout.size, dtype=bool)].reshape(layout.size, -1)
        assert off_diag.max(axis=1).max() < -709
        assert _core_py._LossPlan(layout.a, layout.active).partner is not None
        _, r, de = _assert_close(e, layout.a, layout.active, log_transform)
        assert not r.any() and np.isnan(de[layout.a != 0]).all()


@pytest.mark.parametrize("log_transform", [False, True])
def test_overflowing_stabilizer_matches_reference(log_transform):
    # sq-euclid at scale 30 puts every row's largest exponent far below -700:
    # eps * exp(-max) overflows and the outputs hold inf and NaN.
    rng = np.random.default_rng(3)
    layout = aff.type3_affinity(4)
    e = ExponentMatrix(rng.normal(0.0, 30.0, size=(8, 4)), KernelParams("sq-euclid")).e
    _, r, de = _assert_close(e, layout.a, _active(layout.a), log_transform)
    assert not r.any() and np.isnan(de[layout.a != 0]).all()


@pytest.mark.parametrize("log_transform", [False, True])
def test_rows_flagged_active_without_positive_support(log_transform):
    rng = np.random.default_rng(4)
    a = aff.type4_affinity(3).a.copy()
    a[2] = 0.0  # no support at all
    a[4, a[4] > 0] = -1.0  # negatives only
    active = np.ones(6, dtype=np.uint8)
    e = rng.normal(size=(6, 6))
    _assert_close(e, a, active, log_transform)
    # The NT-Xent pattern of zero cells and M positives, but row 1's positive
    # moved to row 0: no partner column, though every row is flagged active.
    a = aff.type4_affinity(3).a.copy()
    a[1, 0], a[0, 2] = -1, 1
    assert _core_py._LossPlan(a, active).partner is None
    _assert_close(e, a, active, log_transform)
    # Only rows without a nonzero cell flagged, and not every row: a block
    # of one row and no column.
    a, active = np.zeros((4, 4)), np.array([1, 0, 0, 0], dtype=np.uint8)
    assert _core_py._LossPlan(a, active).shape == (1, 0)
    _assert_close(e[:4, :4], a, active, log_transform)


def test_all_inactive_is_zero():
    e = np.random.default_rng(5).normal(size=(4, 4))
    loss, r, de = _assert_close(e, np.zeros((4, 4)), np.zeros(4, dtype=np.uint8), False)
    assert loss == 0.0 and not r.any() and not de.any()


@pytest.mark.parametrize("log_transform", [False, True])
def test_single_class(log_transform):
    layout = aff.type3_affinity(1)
    e = np.array([[0.0, -0.3], [-0.3, 0.0]])
    loss, r, de = _assert_close(e, layout.a, _active(layout.a), log_transform)
    assert r[1] == 0.0 and not de[1].any()


def test_inactive_rows_are_zero_and_inputs_untouched():
    rng = np.random.default_rng(6)
    layout = aff.type3_affinity(5)
    e = rng.normal(size=(10, 10))
    e_before = e.copy()
    _, r, de = _core_py.ratio_terms(e, layout.a, _active(layout.a), 1e-12, True, 0.2)
    assert np.array_equal(e, e_before)
    assert not r[1::2].any() and not de[1::2].any()
    assert np.all(r[0::2] > 0.0)


def reference_gcl_grad(batch, matrix, params, options):
    """``gcl_grad`` written directly, one fresh array per operation:
    (loss, per_anchor, grad_z, grad_kernel), with the exponent matrix formed
    whole, not as the kernel's product of factors."""
    z, kind = batch.z, params.kind
    if kind == "sq-euclid":
        sq = np.sum(z**2, axis=1)
        e = -((sq[:, None] + sq[None, :]) - 2.0 * z @ z.T)
        np.fill_diagonal(e, 0.0)
    else:
        u = z @ params.proj if kind == "cosine-temp" else z
        norms = np.linalg.norm(u, axis=1)
        safe = np.where(norms == 0.0, 1.0, norms)
        v = u / safe[:, None]
        c = v @ v.T
        e = c / params.tau if kind == "cosine-temp" else params.gamma * c + params.beta
    active = matrix.active
    loss, r, de = reference_ratio_terms(e, matrix.a, active, options.epsilon,
                                        options.ratio_transform == "negated-log-ratio",
                                        1.0 / int(active.sum()))
    grad_kernel = {}
    if kind == "sq-euclid":
        s = de + de.T
        return loss, r, -2.0 * (s.sum(axis=1)[:, None] * z - s @ z), grad_kernel
    if kind == "cosine-temp":
        grad_c = de / params.tau
    else:
        grad_kernel["gamma"] = float(np.sum(de * c))
        grad_kernel["beta"] = float(np.sum(de))
        grad_c = params.gamma * de
    grad_v = (grad_c + grad_c.T) @ v
    radial = np.sum(grad_v * v, axis=1, keepdims=True)
    grad_u = (grad_v - radial * v) / safe[:, None]
    grad_u[norms == 0.0] = 0.0
    if kind == "cosine-temp":
        grad_kernel["proj"] = z.T @ grad_u
        return loss, r, grad_u @ params.proj.T, grad_kernel
    return loss, r, grad_u, grad_kernel


def _plan_layouts(n, rng):
    """(name, matrix, (N, N')) for every layout the plan distinguishes: dense
    (type 4, strict semi), masked with every row active (type 2, relaxed
    semi), masked with inactive rows (types 1 and 3) and a float matrix whose
    inactive rows are irregular."""
    n_unl = max(1, n // 4)
    m = 2 * n
    a = rng.choice([-1.0, 0.0, 1.0], size=(m, m), p=[0.4, 0.3, 0.3])
    inactive = rng.choice(m, size=m // 3, replace=False)
    a[inactive] = np.minimum(a[inactive], 0.0)
    return [
        ("type1", aff.type1_affinity(n), (n, 0)),
        ("type2", aff.type2_affinity(n), (n, 0)),
        ("type3", aff.type3_affinity(n), (n, 0)),
        ("type4", aff.type4_affinity(n), (n, 0)),
        ("semi", aff.semi_affinity(n - n_unl, n_unl), (n - n_unl, n_unl)),
        ("semi-relaxed", aff.semi_affinity(n - n_unl, n_unl, relaxed_unlabeled=True),
         (n - n_unl, n_unl)),
        ("float-irregular", aff.AffinityMatrix(a), (n, 0)),
    ]


def _kernels(rng, d):
    # Run in this order on one matrix, so its plan also sees the kind change.
    return [KernelParams("sq-euclid"),
            KernelParams("cosine-temp", tau=0.3, proj=rng.normal(size=(d, d))),
            KernelParams("affine-cosine", gamma=7.0, beta=-3.0)]


def _batch(rng, n_labeled, n_unlabeled, d):
    z = rng.normal(0.0, 0.5, size=(2 * (n_labeled + n_unlabeled), d))
    return batching.RepresentationBatch(z, *batching.canonical_tags(n_labeled, n_unlabeled),
                                        n_labeled, n_unlabeled)


def _assert_report(report, want, key):
    loss, r, grad_z, grad_kernel = want
    assert _close(report.loss, loss), key
    assert _close(report.per_anchor, r), key
    assert _close(report.grad_z, grad_z), key
    assert report.grad_kernel.keys() == grad_kernel.keys(), key
    # The ratios barely depend on beta, so its gradient is a sum that cancels
    # to near 0: the kernel gradients are held to the loss's scale as well.
    for name, g in grad_kernel.items():
        assert _close(report.grad_kernel[name], g, floor=abs(loss)), (key, name)


# M = 18, 66 and 132: at each, 2 * (z @ z.T) rounds differently from (2z) @ z.T.
@pytest.mark.parametrize("n", [9, 33, 66])
@pytest.mark.parametrize("transform", losses.TRANSFORMS)
def test_plan_matches_reference_fresh_and_reused(n, transform):
    rng = np.random.default_rng([n, len(transform)])
    options = losses.GclOptions(ratio_transform=transform)
    d = 8
    kernels = _kernels(rng, d)
    for name, matrix, (n_labeled, n_unlabeled) in _plan_layouts(n, rng):
        assert np.all(matrix.active) == (name in ("type2", "type4", "semi", "semi-relaxed"))
        for params in kernels:
            for step in range(3):
                batch = _batch(rng, n_labeled, n_unlabeled, d)
                key = (name, params.kind, step)
                want = reference_gcl_grad(batch, matrix, params, options)
                fresh = aff.AffinityMatrix(matrix.a)
                _assert_report(losses.gcl_grad(batch, fresh, params, options), want, key)
                _assert_report(losses.gcl_grad(batch, matrix, params, options), want, key)
                value = losses.gcl(batch, matrix, params, options)
                assert _close(value.loss, want[0]) and _close(value.per_anchor, want[1])


def _report_arrays(report):
    # ``active`` is left out: it is the matrix's read-only anchor mask, which
    # every report of the matrix shares by design.
    return [report.per_anchor, report.grad_z] + [
        g for g in report.grad_kernel.values() if isinstance(g, np.ndarray)]


@pytest.mark.parametrize("name", ["type3", "type4", "semi-relaxed", "float-irregular"])
def test_reports_share_no_memory(name):
    rng = np.random.default_rng(21)
    d = 6
    matrix, (n_labeled, n_unlabeled) = {
        k: (m, shape) for k, m, shape in _plan_layouts(10, rng)}[name]
    for params in _kernels(rng, d):
        # With the first kernel, ``first`` is the matrix's first evaluation,
        # the one that builds the plan.
        first = losses.gcl_grad(_batch(rng, n_labeled, n_unlabeled, d), matrix, params)
        kept = [x.copy() for x in _report_arrays(first)]
        plan = matrix._plan
        second = losses.gcl_grad(_batch(rng, n_labeled, n_unlabeled, d), matrix, params)
        assert plan is matrix._plan
        buffers = [x for x in vars(plan).values() if isinstance(x, np.ndarray)]
        for x in _report_arrays(first):
            for y in _report_arrays(second) + buffers:
                assert not np.shares_memory(x, y), (name, params.kind)
        for x in _report_arrays(second):
            for y in buffers:
                assert not np.shares_memory(x, y), (name, params.kind)
        for x, y in zip(_report_arrays(first), kept):
            assert _bit_equal(x, y), (name, params.kind)


@pytest.mark.parametrize("name, n, d", [("type1", 128, 4), ("type3", 128, 4), ("type4", 64, 8)])
def test_reused_matrix_allocates_no_block_sized_array(name, n, d):
    # From a matrix's second evaluation on, every array of the block's size
    # is a plan buffer; the rest is O(M * D) and O(M) arrays plus NumPy's
    # ufunc iteration buffers, under 0.8 of a block. Every layout's block is
    # (128, 128), with M * D = 1024: types 1 and 3 take an (N, N) block of
    # M = 2N. No gradient on the block is formed: the kernel returns row
    # coefficients and the backward pass multiplies the block by the factors.
    rng = np.random.default_rng(22)
    matrix = getattr(aff, f"{name}_affinity")(n)
    peaks = []
    tracemalloc.start()
    try:
        for params in _kernels(rng, d):
            for _ in range(3):
                batch = _batch(rng, n, 0, d)
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                losses.gcl_grad(batch, matrix, params)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert matrix._plan.shape == (128, 128)
    block = 8 * 128 * 128
    # The plan's buffer W, of the block's shape on every path (one panel).
    assert peaks[0] >= block
    assert max(peaks[1:]) < 0.8 * block, [p / block for p in peaks]


def test_evaluations_past_one_panel_allocate_no_block_sized_array():
    # Type 4 at N = 384: a (768, 768) block of 4.7 MB, evaluated in 64-row
    # panels of 384 KiB. The O(M * D) factors and gradients and NumPy's
    # 64 KiB ufunc buffer stay under 0.1 of a block here, so a temporary of
    # half a block fails both bounds. The first evaluation also runs the
    # matrix's one-time checks of its int8 entries (the entry check and the
    # plan's partner search), whose temporaries hold one byte per cell, an
    # eighth of a block each: its bound is 0.3.
    rng = np.random.default_rng(28)
    n, d = 384, 8
    matrix = aff.type4_affinity(n)
    peaks = []
    tracemalloc.start()
    try:
        for params in _kernels(rng, d):
            for _ in range(2):
                batch = _batch(rng, n, 0, d)
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                losses.gcl_grad(batch, matrix, params)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    block = 8 * 768 * 768
    assert matrix._plan.w.nbytes == _core_py._PANEL_BYTES < 0.1 * block
    assert peaks[0] < 0.3 * block, [p / block for p in peaks]
    assert max(peaks[1:]) < 0.15 * block, [p / block for p in peaks]


def test_plan_block_of_each_layout():
    # The block is the active rows x the columns with a nonzero cell on
    # them; it holds every nonzero cell of the active rows, and the masks
    # and the one float buffer, W (one panel at this size), have its shape.
    # Types 1 and 3 take every other row and column.
    n = 6
    every, even, odd = np.arange(2 * n), np.arange(0, 2 * n, 2), np.arange(1, 2 * n, 2)
    cases = {  # name: (matrix, rows, cols, dense path)
        "type1": (aff.type1_affinity(n), even, odd, False),
        "type2": (aff.type2_affinity(n), every, every, False),
        "type3": (aff.type3_affinity(n), even, odd, True),
        "type4": (aff.type4_affinity(n), every, every, True),
        "semi": (aff.semi_affinity(4, 2), every, every, True),
        "semi-relaxed": (aff.semi_affinity(4, 2, relaxed_unlabeled=True), every, every, False),
    }
    for name, (matrix, rows, cols, dense) in cases.items():
        plan, a = matrix._plan, matrix.a
        assert np.array_equal(plan.rows, rows) and np.array_equal(plan.cols, cols), name
        assert plan.whole == (rows.size == 2 * n), name
        shape = (rows.size, cols.size)
        assert plan.shape == shape, name
        floats = [x for x in vars(plan).values()
                  if isinstance(x, np.ndarray) and x.dtype.kind == "f"]
        assert len(floats) == 1 and floats[0] is plan.w and plan.w.shape == shape, name
        assert np.count_nonzero(a[np.ix_(rows, cols)]) == np.count_nonzero(a[matrix.active]), name
        assert (plan.partner is not None) == dense, name
        if dense:
            assert (a[np.ix_(rows, cols)][np.arange(shape[0]), plan.partner] > 0).all(), name
            assert plan.off is plan.pos is plan.neg is None, name
        else:
            assert plan.off.shape == plan.pos.shape == plan.neg.shape == shape, name


@pytest.mark.parametrize("a", [np.zeros((4, 4)), np.eye(4) - 1.0], ids=["zero", "negatives"])
def test_all_inactive_matrix(a):
    rng = np.random.default_rng(23)
    matrix = aff.AffinityMatrix(a)
    assert matrix._plan.shape[0] == 0 and matrix._plan.partner is None
    for params in _kernels(rng, 3):
        report = losses.gcl_grad(_batch(rng, 2, 0, 3), matrix, params)
        assert report.loss == 0.0 and not report.per_anchor.any() and not report.grad_z.any()


@pytest.mark.parametrize("transform", losses.TRANSFORMS)
def test_partial_block_with_self_cells(transform):
    # Active rows 0, 1 and 3 against columns 0-2: the block holds the self
    # cells (0, 0) and (1, 1), off the support, so it takes the masked path.
    a = np.zeros((6, 6))
    a[0, [1, 2]] = [1.0, -1.0]
    a[1, [0, 2]] = [-1.0, 1.0]
    a[3, [0, 1, 2]] = [1.0, -1.0, -1.0]
    a[4, 5] = -1.0  # an inactive row's cell, outside the block
    matrix = aff.AffinityMatrix(a)
    plan = matrix._plan
    assert plan.rows.tolist() == [0, 1, 3] and plan.cols.tolist() == [0, 1, 2]
    assert plan.partner is None and plan.off[0, 0] and plan.off[1, 1]
    rng = np.random.default_rng(24)
    options = losses.GclOptions(ratio_transform=transform)
    for params in _kernels(rng, 4):
        for _ in range(2):
            batch = _batch(rng, 3, 0, 4)
            want = reference_gcl_grad(batch, matrix, params, options)
            _assert_report(losses.gcl_grad(batch, matrix, params, options), want, params.kind)


def test_masked_row_whose_positive_cell_underflows():
    # Row 0's positive partner is 30 units away (sq-euclid exponent -900) and
    # its negative at distance 0 holds the row max, so exp underflows the
    # positive cell to 0 and the numerator is 0. Row 3's cell on column 0
    # puts a zero cell in the block: the masked path. The ratio is 0 and the
    # gradient on the row is 0, not the 0 / 0 of a positive cell's share.
    a = np.zeros((4, 4))
    a[0, [1, 2]] = [1.0, -1.0]
    a[3, [0, 2]] = [-1.0, 1.0]
    matrix = aff.AffinityMatrix(a)
    assert matrix._plan.partner is None and matrix._plan.rows.tolist() == [0, 3]
    z = np.array([[0.0, 0.0], [30.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    batch = batching.RepresentationBatch(z, *batching.canonical_tags(2, 0), 2, 0)
    params, options = KernelParams("sq-euclid"), losses.GclOptions()
    _, r, de = _assert_close(ExponentMatrix(z, params).e, a, matrix.active, False)
    assert r[0] == 0.0 and np.isfinite(de).all() and not de[0].any()
    report = losses.gcl_grad(batch, matrix, params, options)
    assert np.isfinite(report.grad_z).all()
    _assert_report(report, reference_gcl_grad(batch, matrix, params, options), "underflow")


def _raise_layouts(n=4):
    """(matrix, (N, N')) of every layout the loss plan distinguishes, at M = 2n."""
    h = n // 2
    return {
        "type1": (aff.type1_affinity(n), (n, 0)),
        "type2": (aff.type2_affinity(n), (n, 0)),
        "type3": (aff.type3_affinity(n), (n, 0)),
        "type4": (aff.type4_affinity(n), (n, 0)),
        "semi": (aff.semi_affinity(h, h), (h, h)),
        "semi-relaxed": (aff.semi_affinity(h, h, relaxed_unlabeled=True), (h, h)),
    }


@pytest.mark.parametrize("name", ["type1", "type2", "type3", "type4", "semi", "semi-relaxed"])
def test_non_finite_exponent_in_block_raises(name):
    # The finiteness check covers the block, every exponent the loss reads.
    rng = np.random.default_rng(25)
    matrix, (n_labeled, n_unlabeled) = _raise_layouts()[name]
    tags = batching.canonical_tags(n_labeled, n_unlabeled)
    batch = _batch(rng, n_labeled, n_unlabeled, 3)
    huge = batching.RepresentationBatch(batch.z * 1e200, *tags, n_labeled, n_unlabeled)
    # Finite squared norms (about 1e308) whose cross term 2 x.y is -inf: x on
    # every even row, y = -x on the odd row next to it, a cell of every block.
    x = rng.normal(size=(4, 3))
    x *= 1e154 / np.linalg.norm(x, axis=1, keepdims=True)
    z = np.empty((8, 3))
    z[0::2], z[1::2] = x, -x
    assert np.isfinite(np.sum(z**2, axis=1)).all()
    opposed = batching.RepresentationBatch(z, *tags, n_labeled, n_unlabeled)
    for b, params in ((huge, KernelParams("sq-euclid")),
                      (opposed, KernelParams("sq-euclid")),
                      (batch, KernelParams("cosine-temp", tau=1e-310, proj=np.eye(3)))):
        with pytest.raises(FloatingPointError, match="non-finite exponent"), \
                np.errstate(over="ignore", invalid="ignore"):
            losses.gcl_grad(b, matrix, params)


@pytest.mark.parametrize("transform", losses.TRANSFORMS)
@pytest.mark.parametrize("name, dense", [("type3", True), ("type4", True), ("semi", True),
                                         ("type2", False), ("semi-relaxed", False)])
def test_diverged_rows_stay_loud_through_gcl_grad(name, dense, transform):
    # sq-euclid on embeddings scaled by 40: every active row's largest
    # exponent is far below -709, so eps * exp(-max) overflows and every
    # active ratio collapses to 0. The gradient of such a row must be NaN,
    # never a finite gradient of a diverged row, on the fresh matrix's first
    # evaluation and on the reused plan.
    rng = np.random.default_rng(26)
    matrix, (n_labeled, n_unlabeled) = _raise_layouts()[name]
    assert (matrix._plan.partner is not None) == dense
    options = losses.GclOptions(ratio_transform=transform)
    for _ in range(2):
        z = rng.normal(0.0, 40.0, size=(matrix.size, 8))
        d2 = np.sum((z[:, None] - z[None]) ** 2, axis=2)
        largest = np.where(matrix.a != 0, -d2, -np.inf).max(axis=1)
        assert largest[matrix.active].max() < -709
        batch = batching.RepresentationBatch(
            z, *batching.canonical_tags(n_labeled, n_unlabeled), n_labeled, n_unlabeled)
        with np.errstate(all="ignore"):
            report = losses.gcl_grad(batch, matrix, KernelParams("sq-euclid"), options)
        assert not report.per_anchor[matrix.active].any()
        assert np.isnan(report.grad_z[matrix.active]).all()


def _panel_rows(monkeypatch, rows, c):
    """Give plans built from here on ``rows``-row panels on a block of C = ``c``."""
    monkeypatch.setattr(_core_py, "_PANEL_BYTES", 8 * c * rows)


# M = 22. A block of C = 22 columns (every layout but types 1 and 3) takes
# panels of 11 rows (two whole panels), 7 (3 x 7 + a panel of 1), 5
# (4 x 5 + 2), 21 (a last panel of one row) and 1 (every panel one row);
# types 1 and 3's (11, 11) block takes panels of twice as many rows.
@pytest.mark.parametrize("rows", [11, 7, 5, 21, 1])
@pytest.mark.parametrize("transform", losses.TRANSFORMS)
def test_panels_match_reference_fresh_and_reused(monkeypatch, rows, transform):
    n, d = 11, 6
    _panel_rows(monkeypatch, rows, 2 * n)
    rng = np.random.default_rng([rows, len(transform)])
    options = losses.GclOptions(ratio_transform=transform)
    kernels = _kernels(rng, d)
    for name, matrix, (n_labeled, n_unlabeled) in _plan_layouts(n, rng):
        plan = matrix._plan
        assert plan.w.shape == (min(plan.shape[0], rows * 2 * n // plan.shape[1]),
                                plan.shape[1]), name
        for params in kernels:
            for step in range(2):
                batch = _batch(rng, n_labeled, n_unlabeled, d)
                key = (name, params.kind, step)
                want = reference_gcl_grad(batch, matrix, params, options)
                fresh = aff.AffinityMatrix(matrix.a)
                _assert_report(losses.gcl_grad(batch, fresh, params, options), want, key)
                _assert_report(losses.gcl_grad(batch, matrix, params, options), want, key)
                value = losses.gcl(batch, matrix, params, options)
                assert _close(value.loss, want[0]) and _close(value.per_anchor, want[1]), key


@pytest.mark.parametrize("name", ["type4", "semi-relaxed"])
def test_panels_at_wide_scale(name):
    # M = 768 at the module's panel size: 64-row panels of 384 KiB, on the
    # dense and the masked path.
    rng = np.random.default_rng(32)
    d = 16
    matrix, (n_labeled, n_unlabeled) = _raise_layouts(384)[name]
    batch = _batch(rng, n_labeled, n_unlabeled, d)
    for params, transform in zip(_kernels(rng, d), losses.TRANSFORMS * 2):
        options = losses.GclOptions(ratio_transform=transform)
        want = reference_gcl_grad(batch, matrix, params, options)
        _assert_report(losses.gcl_grad(batch, matrix, params, options), want, params.kind)
        value = losses.gcl(batch, matrix, params, options)
        assert _close(value.loss, want[0]) and _close(value.per_anchor, want[1])
    # The plan's only float array is the panel buffer: no (R, C) block.
    plan = matrix._plan
    floats = [x for x in vars(plan).values() if isinstance(x, np.ndarray) and x.dtype.kind == "f"]
    assert len(floats) == 1 and floats[0] is plan.w
    assert plan.w.shape == (64, 768) and plan.w.nbytes == _core_py._PANEL_BYTES


def _opposed_pair(rng, m, i, d=3):
    """Embeddings whose only non-finite sq-euclid exponents are on rows i and
    i + 1: finite squared norms (about 1e308) of x and -x, whose cross term
    2 x.y is -inf."""
    z = rng.normal(0.0, 0.5, size=(m, d))
    x = rng.normal(size=d)
    z[i] = x * (1e154 / np.linalg.norm(x))
    z[i + 1] = -z[i]
    with np.errstate(over="ignore", invalid="ignore"):
        e = ExponentMatrix(z, KernelParams("sq-euclid")).e
    bad = np.flatnonzero(~np.isfinite(e).all(axis=1))
    assert bad.tolist() == [i, i + 1]
    return z


@pytest.mark.parametrize("name", ["type1", "type2", "type3", "type4", "semi", "semi-relaxed"])
@pytest.mark.parametrize("pair", [8, 22], ids=["middle-panel", "last-panel"])
def test_non_finite_exponent_in_a_later_panel_raises(monkeypatch, name, pair):
    # M = 24 in 4-row panels: rows 8-9 are in the third of six panels of a
    # whole-matrix block and in the second of three of types 1 and 3's
    # (12, 12) block; rows 22-23 are in the last. No other row holds a
    # non-finite exponent, so every panel's cells must be checked.
    _panel_rows(monkeypatch, 4, 12 if name in ("type1", "type3") else 24)
    rng = np.random.default_rng([33, pair])
    matrix, (n_labeled, n_unlabeled) = _raise_layouts(12)[name]
    plan = matrix._plan
    assert plan.w.shape[0] == 4 and plan.shape[0] > 4 and pair in plan.rows
    assert np.flatnonzero(plan.rows == pair)[0] >= 4
    batch = batching.RepresentationBatch(_opposed_pair(rng, 24, pair),
                                         *batching.canonical_tags(n_labeled, n_unlabeled),
                                         n_labeled, n_unlabeled)
    for fn in (losses.gcl_grad, losses.gcl):
        with pytest.raises(FloatingPointError, match="non-finite exponent"), \
                np.errstate(over="ignore", invalid="ignore"):
            fn(batch, matrix, KernelParams("sq-euclid"))


@pytest.mark.parametrize("transform", losses.TRANSFORMS)
@pytest.mark.parametrize("name", ["type4", "semi", "type2", "semi-relaxed"])
@pytest.mark.parametrize("row", [9, 23], ids=["middle-panel", "last-panel"])
def test_a_diverged_row_in_a_later_panel_stays_loud(monkeypatch, name, row, transform):
    # M = 24 in 4-row panels. Row ``row`` is 100 units from every other
    # entry, so its largest sq-euclid exponent is -1e4, eps * exp(-max)
    # overflows and its ratio collapses to 0. Its NaN must reach the
    # gradient, and through the column side every entry's, so that train()
    # stops. The other rows keep positive ratios, except its partner's,
    # whose one positive cell underflows to 0.
    _panel_rows(monkeypatch, 4, 24)
    rng = np.random.default_rng([34, row])
    matrix, (n_labeled, n_unlabeled) = _raise_layouts(12)[name]
    options = losses.GclOptions(ratio_transform=transform)
    for _ in range(2):
        z = rng.normal(0.0, 0.5, size=(24, 4))
        z[row, 0] += 100.0
        batch = batching.RepresentationBatch(
            z, *batching.canonical_tags(n_labeled, n_unlabeled), n_labeled, n_unlabeled)
        with np.errstate(all="ignore"):
            report = losses.gcl_grad(batch, matrix, KernelParams("sq-euclid"), options)
        assert report.per_anchor[row] == 0.0
        assert np.all(np.delete(report.per_anchor, [row - 1, row]) > 0.0)
        assert np.isnan(report.grad_z[row]).all() and np.isnan(report.grad_z).any(axis=1).all()
