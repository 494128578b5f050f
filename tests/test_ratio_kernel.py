"""The NumPy ratio kernel against its direct, unfused formulation.

``reference_ratio_terms`` is the straightforward whole-matrix evaluation:
every row, -inf outside the support fed to ``exp``, one temporary per
operation. ``_core_py.ratio_terms`` must reproduce it bit for bit (values,
NaNs and signs of zero) on every layout, kernel, transform and embedding
scale, including scales where the stabilizer overflows, with the affinity
as int8 (the built-in layouts) or float64, and with and without the
``partner`` column of the NT-Xent path.
"""

import warnings

import numpy as np
import pytest

from gclkit import _core_py
from gclkit import affinity as aff
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
    den = w.sum(axis=1) + eps * np.exp(-mx)

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

    dr = (p * den[:, None] - num[:, None] * w) / (den * den)[:, None]
    dr[~act] = 0.0
    de[:] = dl_dr[:, None] * dr
    de[~act] = 0.0
    return loss, r, de


def _bit_equal(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return (x.shape == y.shape and np.array_equal(x, y, equal_nan=True)
            and np.array_equal(np.signbit(x), np.signbit(y)))


def _assert_same(e, a, active, log_transform, eps=1e-12, partner=None):
    inv_norm = 1.0 / max(1, int(np.count_nonzero(active)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = reference_ratio_terms(e, a, active, eps, log_transform, inv_norm)
        got = _core_py.ratio_terms(e, a, active, eps, log_transform, inv_norm, partner)
    for w, g in zip(want, got):
        assert _bit_equal(w, g)
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
    for layout in _layouts(n).values():
        e = _exponents(rng, kind, scale, layout.size)
        for a in (layout.a, layout.a.astype(float)):
            _assert_same(e, a, _active(layout.a), log_transform)


def _ntxent_layouts():
    """Every layout with a partner column: type 4, strict semi, and a float
    matrix of the same pattern whose partners are not adjacent."""
    out = {f"type4/N{n}": aff.type4_affinity(n) for n in (1, 2, 5, 13)}
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
    return out


@pytest.mark.parametrize("kind", ["affine-cosine", "sq-euclid", "cosine-temp"])
@pytest.mark.parametrize("scale", [0.3, 3.0, 40.0])
@pytest.mark.parametrize("log_transform", [False, True])
def test_partner_path_matches_reference(kind, scale, log_transform):
    rng = np.random.default_rng([int(scale * 10), len(kind)])
    for name, layout in _ntxent_layouts().items():
        partner = layout.partner
        assert partner is not None, name
        e = _exponents(rng, kind, scale, layout.size)
        for a in (layout.a, layout.a.astype(float)):
            _assert_same(e, a, layout.active, log_transform, partner=partner)


@pytest.mark.parametrize("log_transform", [False, True])
def test_partner_path_row_max_below_exp_range(log_transform):
    # sq-euclid at scale 40: every off-diagonal exponent is far below -709,
    # so eps * exp(-max) overflows; the diagonal's 0 must not count as the max.
    rng = np.random.default_rng(12)
    for layout in (aff.type4_affinity(4), aff.semi_affinity(3, 2)):
        e = _exponents(rng, "sq-euclid", 40.0, layout.size)
        off_diag = e[~np.eye(layout.size, dtype=bool)].reshape(layout.size, -1)
        assert off_diag.max(axis=1).max() < -709
        _, r, de = _assert_same(e, layout.a, layout.active, log_transform,
                                partner=layout.partner)
        assert not r.any() and not np.all(np.isfinite(de))


@pytest.mark.parametrize("log_transform", [False, True])
def test_overflowing_stabilizer_matches_reference(log_transform):
    # sq-euclid at scale 30 puts every row's largest exponent far below -700:
    # eps * exp(-max) overflows and the outputs hold inf and NaN.
    rng = np.random.default_rng(3)
    layout = aff.type3_affinity(4)
    e = ExponentMatrix(rng.normal(0.0, 30.0, size=(8, 4)), KernelParams("sq-euclid")).e
    _, _, de = _assert_same(e, layout.a, _active(layout.a), log_transform)
    assert not np.all(np.isfinite(de))


@pytest.mark.parametrize("log_transform", [False, True])
def test_rows_flagged_active_without_positive_support(log_transform):
    rng = np.random.default_rng(4)
    a = aff.type4_affinity(3).a.copy()
    a[2] = 0.0  # no support at all
    a[4, a[4] > 0] = -1.0  # negatives only
    active = np.ones(6, dtype=np.uint8)
    e = rng.normal(size=(6, 6))
    _assert_same(e, a, active, log_transform)


def test_all_inactive_is_zero():
    e = np.random.default_rng(5).normal(size=(4, 4))
    loss, r, de = _assert_same(e, np.zeros((4, 4)), np.zeros(4, dtype=np.uint8), False)
    assert loss == 0.0 and not r.any() and not de.any()


@pytest.mark.parametrize("log_transform", [False, True])
def test_single_class(log_transform):
    layout = aff.type3_affinity(1)
    e = np.array([[0.0, -0.3], [-0.3, 0.0]])
    loss, r, de = _assert_same(e, layout.a, _active(layout.a), log_transform)
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
