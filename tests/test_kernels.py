import numpy as np
import pytest

from gclkit import affinity as aff
from gclkit import kernels
from gclkit.loss import finite_diff_grad, max_rel_err

from conftest import random_prototype_batch


class TestScalarKernels:
    def test_sqeuclid_identical_points(self):
        assert kernels.sqeuclid_exponent([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_sqeuclid_hand_case(self):
        assert kernels.sqeuclid_exponent([0.0, 0.0], [3.0, 4.0]) == -25.0

    def test_sqeuclid_symmetric(self):
        rng = np.random.default_rng(0)
        z, zp = rng.normal(size=4), rng.normal(size=4)
        assert kernels.sqeuclid_exponent(z, zp) == kernels.sqeuclid_exponent(zp, z)

    def test_sqeuclid_dim_mismatch(self):
        with pytest.raises(ValueError):
            kernels.sqeuclid_exponent([1.0], [1.0, 2.0])

    def test_cosine_temp_identical(self):
        p = kernels.KernelParams("cosine-temp", tau=1.0, proj=np.eye(2))
        assert kernels.cosine_temp_exponent([1.0, 1.0], [1.0, 1.0], p) == pytest.approx(1.0)

    def test_cosine_temp_orthogonal(self):
        p = kernels.KernelParams("cosine-temp", tau=0.5, proj=np.eye(2))
        assert kernels.cosine_temp_exponent([1.0, 0.0], [0.0, 1.0], p) == pytest.approx(0.0)

    def test_cosine_temp_hand_case(self):
        p = kernels.KernelParams("cosine-temp", tau=0.1, proj=np.eye(2))
        got = kernels.cosine_temp_exponent([1.0, 0.0], [1.0, 1.0], p)
        assert got == pytest.approx(10.0 / np.sqrt(2.0))

    def test_affine_cosine_hand_cases(self):
        p = kernels.KernelParams("affine-cosine", gamma=1.0, beta=0.0)
        assert kernels.affine_cosine_exponent([2.0, 0.0], [5.0, 0.0], p) == pytest.approx(1.0)
        p = kernels.KernelParams("affine-cosine", gamma=10.0, beta=-5.0)
        got = kernels.affine_cosine_exponent([1.0, 0.0], [0.8, 0.6], p)
        assert got == pytest.approx(3.0)

    def test_zero_norm_policy(self):
        p = kernels.KernelParams("affine-cosine", gamma=2.0, beta=0.5)
        assert kernels.affine_cosine_exponent([0.0, 0.0], [1.0, 1.0], p) == pytest.approx(0.5)


class TestKernelParams:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            kernels.KernelParams("rbf")

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            kernels.KernelParams("cosine-temp", tau=0.0, proj=np.eye(2))

    def test_cosine_temp_requires_proj(self):
        with pytest.raises(ValueError):
            kernels.KernelParams("cosine-temp")

    def test_proj_dropped_for_other_kinds(self):
        p = kernels.KernelParams("sq-euclid", proj=np.eye(3))
        assert p.proj is None


def all_params(d, rng):
    return (
        kernels.KernelParams("sq-euclid"),
        kernels.KernelParams("cosine-temp", tau=0.5, proj=rng.normal(size=(d, d))),
        kernels.KernelParams("affine-cosine", gamma=3.0, beta=-1.0),
    )


class TestExponentMatrix:
    def test_two_entry_symmetric(self):
        z = np.array([[1.0, 0.0], [0.0, 2.0]])
        em = kernels.ExponentMatrix(z, kernels.KernelParams("sq-euclid"))
        assert em.e.shape == (2, 2)
        assert np.array_equal(em.e, em.e.T)
        assert em.e[0, 1] == -5.0

    def test_matches_scalar_kernels(self, rng):
        rep = random_prototype_batch(rng, n=3, kp=2, d=4)
        for params in all_params(4, rng):
            em = kernels.exponent_matrix(rep, params)
            for i in range(rep.size):
                for j in range(rep.size):
                    if params.kind == "sq-euclid" and i == j:
                        continue  # diagonal pinned to exactly 0
                    want = kernels.scalar_exponent(rep.z[i], rep.z[j], params)
                    assert em.e[i, j] == pytest.approx(want, abs=1e-12)

    def test_symmetry_all_kinds(self, rng):
        rep = random_prototype_batch(rng, n=4, d=6)
        for params in all_params(6, rng):
            em = kernels.exponent_matrix(rep, params)
            assert np.allclose(em.e, em.e.T)

    def test_cosine_bounds(self, rng):
        rep = random_prototype_batch(rng, n=5, d=4)
        p = kernels.KernelParams("cosine-temp", tau=0.5, proj=rng.normal(size=(4, 4)))
        e = kernels.exponent_matrix(rep, p).e
        assert np.all(e >= -1 / p.tau - 1e-12) and np.all(e <= 1 / p.tau + 1e-12)
        p = kernels.KernelParams("affine-cosine", gamma=4.0, beta=-1.0)
        e = kernels.exponent_matrix(rep, p).e
        assert np.all(e >= p.beta - p.gamma - 1e-12)
        assert np.all(e <= p.beta + p.gamma + 1e-12)

    def test_cosine_scale_invariance(self, rng):
        rep = random_prototype_batch(rng, n=3, d=5)
        for params in all_params(5, rng)[1:]:
            base = kernels.ExponentMatrix(rep.z, params).e
            scaled = kernels.ExponentMatrix(3.7 * rep.z, params).e
            assert np.allclose(base, scaled)

    def test_zero_norm_row(self):
        z = np.array([[0.0, 0.0], [1.0, 2.0]])
        p = kernels.KernelParams("affine-cosine", gamma=2.0, beta=0.5)
        em = kernels.ExponentMatrix(z, p)
        assert em.e[0, 1] == pytest.approx(p.beta)
        grad_z, _ = em.backward(np.ones((2, 2)))
        assert np.all(grad_z[0] == 0.0)


class TestBackward:
    """Finite-difference checks of the exponent-matrix backward pass alone."""

    def _check(self, z, params, grad_e, extra=()):
        em = kernels.ExponentMatrix(z, params)
        grad_z, grad_k = em.backward(grad_e)

        def loss_at(z2, params2):
            return float(np.sum(grad_e * kernels.ExponentMatrix(z2, params2).e))

        fd = finite_diff_grad(lambda v: loss_at(v.reshape(z.shape), params), z.ravel())
        assert max_rel_err(grad_z.ravel(), fd) < 1e-6
        for name in extra:
            x0 = np.atleast_1d(np.asarray(getattr(params, name), float)).ravel()

            def f(v, name=name):
                p2 = kernels.KernelParams(params.kind, tau=params.tau, gamma=params.gamma,
                                          beta=params.beta,
                                          proj=None if params.proj is None else params.proj.copy())
                if name == "proj":
                    p2.proj = v.reshape(params.proj.shape)
                else:
                    setattr(p2, name, float(v[0]))
                return loss_at(z, p2)

            got = np.atleast_1d(np.asarray(grad_k[name], float)).ravel()
            assert max_rel_err(got, finite_diff_grad(f, x0)) < 1e-6

    def test_sq_euclid(self, rng):
        z = rng.normal(size=(5, 3))
        self._check(z, kernels.KernelParams("sq-euclid"), rng.normal(size=(5, 5)))

    def test_affine_cosine(self, rng):
        z = rng.normal(size=(4, 3))
        self._check(z, kernels.KernelParams("affine-cosine", gamma=2.5, beta=-0.5),
                    rng.normal(size=(4, 4)), extra=("gamma", "beta"))

    def test_cosine_temp_with_proj(self, rng):
        z = rng.normal(size=(4, 3))
        p = kernels.KernelParams("cosine-temp", tau=0.7, proj=rng.normal(size=(3, 3)))
        self._check(z, p, rng.normal(size=(4, 4)), extra=("proj",))


def _close(got, want, rtol=1e-12, floor=0.0):
    """Equal within ``rtol`` of the largest magnitude of ``want`` (or of
    ``floor``, if larger)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= rtol * np.abs(want).max(initial=floor)))


def _direct(z, params, grad_e):
    """The whole-matrix exponent and its backward pass, one expression each:
    (e, grad_z, grad_kernel)."""
    grad_kernel = {}
    if params.kind == "sq-euclid":
        sq = np.sum(z**2, axis=1)
        e = -(sq[:, None] + sq[None, :] - 2.0 * z @ z.T)
        np.fill_diagonal(e, 0.0)
        s = grad_e + grad_e.T
        return e, -2.0 * (s.sum(axis=1)[:, None] * z - s @ z), grad_kernel
    u = z @ params.proj if params.kind == "cosine-temp" else z
    norms = np.linalg.norm(u, axis=1)
    v = u / norms[:, None]
    c = v @ v.T
    if params.kind == "cosine-temp":
        e, grad_c = c / params.tau, grad_e / params.tau
    else:
        e, grad_c = params.gamma * c + params.beta, params.gamma * grad_e
        grad_kernel["gamma"] = float(np.sum(grad_e * c))
        grad_kernel["beta"] = float(np.sum(grad_e))
    grad_v = (grad_c + grad_c.T) @ v
    grad_u = (grad_v - np.sum(grad_v * v, axis=1, keepdims=True) * v) / norms[:, None]
    if params.kind == "cosine-temp":
        grad_kernel["proj"] = z.T @ grad_u
        return e, grad_u @ params.proj.T, grad_kernel
    return e, grad_u, grad_kernel


class TestInPlaceArithmetic:
    """The exponent matrix and its backward pass, on the whole matrix and on
    each layout's support block, against the one-expression whole-matrix
    forms: within 1e-12 of their largest magnitude, not bit for bit (the
    exponents are a product of factors plus a per-row constant, and the
    backward pass goes through the factors' gradients)."""

    KINDS = ("sq-euclid", "affine-cosine", "cosine-temp")

    def _params(self, kind, d, rng):
        proj = rng.normal(size=(d, d)) if kind == "cosine-temp" else None
        return kernels.KernelParams(kind, tau=0.3, gamma=7.0, beta=-3.0, proj=proj)

    @pytest.mark.parametrize("scale", [0.3, 30.0])
    @pytest.mark.parametrize("kind", KINDS)
    def test_whole_matrix_without_plan(self, rng, scale, kind):
        z = rng.normal(0.0, scale, size=(9, 5))
        grad_e = rng.normal(size=(9, 9))
        params = self._params(kind, 5, rng)
        em = kernels.ExponentMatrix(z, params)
        e, grad_z, grad_k = _direct(z, params, grad_e)
        # The product of the factors plus rho, not the one-expression form.
        assert _close(em.e, e)
        if kind == "sq-euclid":
            assert not em.e.diagonal().any()
        got_z, got_k = em.backward(grad_e)
        assert _close(got_z, grad_z)
        assert got_k.keys() == grad_k.keys()
        # Sums over the cells of grad_e, held to the scale of their terms.
        for name, g in grad_k.items():
            assert _close(got_k[name], g, floor=np.abs(grad_e).sum()), name

    @pytest.mark.parametrize("scale", [0.3, 30.0])
    @pytest.mark.parametrize("kind", KINDS)
    def test_support_block_of_every_layout(self, rng, scale, kind):
        # With a plan, e is the block of the whole matrix, and a gradient on
        # the block back-propagates as the whole matrix's gradient that is
        # zero off the block.
        n = 5
        params = self._params(kind, 4, rng)
        for matrix in (aff.type1_affinity(n), aff.type2_affinity(n), aff.type3_affinity(n),
                       aff.type4_affinity(n), aff.semi_affinity(3, 2),
                       aff.semi_affinity(3, 2, relaxed_unlabeled=True)):
            plan = matrix._plan
            z = rng.normal(0.0, scale, size=(matrix.size, 4))
            cells = np.ix_(plan.rows, plan.cols)
            grad_e = np.zeros((matrix.size, matrix.size))
            grad_e[cells] = rng.normal(size=plan.shape)
            e, grad_z, grad_k = _direct(z, params, grad_e)
            em = kernels.ExponentMatrix(z, params, plan)
            assert _close(em.e, e[cells])
            got_z, got_k = em.backward(grad_e[cells].copy())
            assert _close(got_z, grad_z)
            assert got_k.keys() == grad_k.keys()
            for name, g in grad_k.items():
                assert _close(got_k[name], g, floor=np.abs(grad_e).sum()), name
