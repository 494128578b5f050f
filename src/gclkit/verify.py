"""Self-checking suites: oracle equivalences, gradients, invariants, EER units.

Each suite returns (name, passed, detail). ``run_all`` prints one line per
suite and reports overall success; the CLI maps that to its exit code.
Suite functions accept the loss entry points as parameters so a harness can
inject a broken implementation and confirm the suite catches it.
"""

import dataclasses
import time

import numpy as np

from . import affinity as aff
from . import batch as batching
from . import loss as losses
from . import synth
from .evaluate import eer
from .kernels import KernelParams

EQUIV_TOL = 1e-10
GRAD_TOL = 1e-4


def _random_prototype_batch(rng, n=None, kp=None, d=None):
    n = n or int(rng.integers(2, 9))
    kp = kp or int(rng.integers(2, 5))
    d = d or int(rng.integers(2, 17))
    encoded = rng.normal(0.0, 0.5 / np.sqrt(d), size=(n, kp, d))
    return batching.build_prototype_batch(encoded)


def _random_augmented_batch(rng, n=None, d=None):
    n = n or int(rng.integers(2, 9))
    d = d or int(rng.integers(2, 17))
    samples = rng.normal(size=(n, d))
    noise = lambda x: x + rng.normal(0.0, 0.1, size=x.shape)
    return batching.build_augmented_batch(synth.paired_views(samples, noise, noise))


def suite_episode_equivalence(cases=100, seed=11, gcl_fn=losses.gcl):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        rep = _random_prototype_batch(rng)
        got = gcl_fn(rep, aff.type3_affinity(rep.n_labeled), KernelParams("sq-euclid")).loss
        want = losses.oracle_episode(rep)
        worst = max(worst, abs(got - want))
    return "episode-equivalence", worst < EQUIV_TOL, f"max |diff| = {worst:.3e}"


def suite_ntxent_equivalence(cases=100, seed=12, gcl_fn=losses.gcl):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        rep = _random_augmented_batch(rng)
        params = KernelParams(
            "cosine-temp", tau=0.5, proj=rng.normal(size=(rep.dim, rep.dim))
        )
        got = gcl_fn(rep, aff.type4_affinity(rep.n_unlabeled), params).loss
        want = losses.oracle_ntxent(rep, params)
        worst = max(worst, abs(got - want))
    return "ntxent-equivalence", worst < EQUIV_TOL, f"max |diff| = {worst:.3e}"


def suite_semi_reduction(cases=100, seed=13, gcl_fn=losses.gcl):
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(cases):
        params = KernelParams("affine-cosine", gamma=5.0, beta=-2.0)
        for rep in (_random_prototype_batch(rng), _random_augmented_batch(rng)):
            semi = gcl_fn(rep, aff.semi_affinity(rep.n_labeled, rep.n_unlabeled), params).loss
            if semi != losses.gcl(rep, aff.type4_affinity(rep.size // 2), params).loss:
                ok = False
    return "semi-reduction", ok, "bitwise group-collapse identities"


def _grad_case(rng, kind, affinity_name, transform="negated-ratio"):
    n = int(rng.integers(2, 6))
    d = int(rng.integers(2, 9))
    encoded = rng.normal(0.0, 0.6, size=(n, 2, d))
    rep = batching.build_prototype_batch(encoded)
    matrix = getattr(aff, f"{affinity_name}_affinity")(n)
    if kind == "cosine-temp":
        params = KernelParams(kind, tau=0.5, proj=rng.normal(0.0, 0.5, size=(d, d)))
    elif kind == "affine-cosine":
        params = KernelParams(kind, gamma=3.0, beta=-1.0)
    else:
        params = KernelParams(kind)
    # A tiny epsilon keeps the guard term's gradient contribution (the only
    # true dependence of the loss on beta) below what central differences can
    # resolve; the epsilon pathway itself is checked separately with a large
    # epsilon in the unit tests.
    options = losses.GclOptions(epsilon=1e-16, ratio_transform=transform)
    return rep, matrix, params, options


def gradient_case_error(rep, matrix, params, options, h=1e-4):
    """Max relative error of all analytic gradients vs central differences."""
    report = losses.gcl_grad(rep, matrix, params, options)
    theta = [rep.z.ravel()]
    analytic = [report.grad_z.ravel()]
    names = ["z"]
    gk = report.grad_kernel or {}
    for name in ("gamma", "beta", "proj"):
        if name in gk:
            theta.append(np.atleast_1d(np.asarray(getattr(params, name), float)).ravel())
            analytic.append(np.atleast_1d(np.asarray(gk[name], float)).ravel())
            names.append(name)
    sizes = [t.size for t in theta]
    x0 = np.concatenate(theta)

    def f(x):
        pos = 0
        pieces = []
        for s in sizes:
            pieces.append(x[pos : pos + s])
            pos += s
        rep2 = dataclasses.replace(rep, z=pieces[0].reshape(rep.z.shape))
        params2 = KernelParams(params.kind, tau=params.tau, gamma=params.gamma,
                               beta=params.beta,
                               proj=None if params.proj is None else params.proj.copy())
        for name, piece in zip(names[1:], pieces[1:]):
            if name == "proj":
                params2.proj = piece.reshape(params.proj.shape)
            else:
                setattr(params2, name, float(piece[0]))
        return losses.gcl(rep2, matrix, params2, options).loss

    return losses.finite_diff_check(f, np.concatenate(analytic), x0, h)


def suite_gradients(cases=100, seed=14):
    # The default ratio transform keeps |loss| < 1, so one ulp of roundoff in
    # the two central-difference evaluations stays below the comparison floor
    # even for parameters whose true gradient is ~0 (beta rescales numerator
    # and denominator identically). The log transform is exercised separately
    # in the unit tests with a noise-aware floor.
    rng = np.random.default_rng(seed)
    kinds = ("sq-euclid", "cosine-temp", "affine-cosine")
    affs = ("type1", "type2", "type3", "type4")
    worst = 0.0
    for c in range(cases):
        kind = kinds[c % 3]
        affinity_name = affs[(c // 3) % 4]
        case = _grad_case(rng, kind, affinity_name)
        worst = max(worst, gradient_case_error(*case))
    return "gradient-suite", worst < GRAD_TOL, f"max rel err = {worst:.3e}"


def triplet_oracle(rep, margin):
    """Direct triplet loss over the next-class pairing, mean over 2N anchors."""
    n = rep.n_labeled
    z = rep.z
    total = 0.0
    for i in range(n):
        j = (i + 1) % n
        for k in (0, 1):
            anchor = z[2 * i + k]
            pos = z[2 * i + (1 - k)]
            neg = z[2 * j + (1 - k)]
            d_pos = float(np.sum((anchor - pos) ** 2))
            d_neg = float(np.sum((anchor - neg) ** 2))
            total += max(0.0, d_pos - d_neg + margin)
    return total / (2 * n)


def siamese_oracle(rep, margin):
    """Direct pairwise contrastive loss over the disjoint-pair layout."""
    n = rep.n_labeled
    z = rep.z
    total = 0.0
    for i in range(n):
        d_pos = np.linalg.norm(z[2 * i] - z[2 * i + 1])
        total += d_pos**2
        j = (i + 1) % n
        d_neg = np.linalg.norm(z[2 * i + 1] - z[2 * j])
        total += max(0.0, margin - d_neg) ** 2
    return total / (2 * n)


def triplet_spec(margin):
    return losses.CompleteFormSpec(
        scorer=lambda z, zp, a: a * float(np.sum((z - zp) ** 2)),
        psi="ramp-margin", margin=margin, orientation="cost",
    )


def siamese_spec(margin):
    def scorer(z, zp, a):
        d = float(np.linalg.norm(z - zp))
        return d**2 if a > 0 else max(0.0, margin - d) ** 2

    return losses.CompleteFormSpec(scorer=scorer, psi="identity", orientation="cost")


def suite_complete_form(cases=50, seed=15, complete_fn=losses.complete_form):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(2, 9))
        encoded = rng.normal(size=(n, 2, d))
        rep = batching.build_prototype_batch(encoded)
        margin = float(rng.uniform(0.1, 2.0))
        got = complete_fn(rep, aff.type2_affinity(n), triplet_spec(margin)).loss
        worst = max(worst, abs(got - triplet_oracle(rep, margin)))
        got = complete_fn(rep, aff.type1_affinity(n), siamese_spec(margin)).loss
        worst = max(worst, abs(got - siamese_oracle(rep, margin)))
    return "complete-form", worst < EQUIV_TOL, f"max |diff| = {worst:.3e}"


def suite_stability(cases=25, seed=16, gcl_fn=losses.gcl):
    """Shifting a cosine exponent offset by +500 must not move the value."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        rep = _random_prototype_batch(rng, kp=2)
        matrix = aff.type4_affinity(rep.n_labeled)
        base = gcl_fn(rep, matrix, KernelParams("affine-cosine", gamma=2.0, beta=0.0)).loss
        shifted = gcl_fn(rep, matrix, KernelParams("affine-cosine", gamma=2.0, beta=500.0)).loss
        worst = max(worst, abs(shifted - base) / max(abs(base), 1e-12))
    return "stability", worst < 1e-9, f"max rel shift = {worst:.3e}"


def suite_eer_units(seed=17):
    ok = abs(eer([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]).eer) < 1e-12
    ok &= abs(eer([0.9, 0.2, 0.8, 0.1], [1, 1, 0, 0]).eer - 0.5) < 1e-12
    rng = np.random.default_rng(seed)
    for _ in range(20):
        scores = rng.normal(size=60) + np.concatenate([np.ones(30), np.zeros(30)])
        labels = np.concatenate([np.ones(30, bool), np.zeros(30, bool)])
        base = eer(scores, labels).eer
        transformed = eer(np.exp(2.0 * scores) + 3.0, labels).eer
        ok &= abs(base - transformed) < 1e-12
    return "eer-units", bool(ok), "hand cases + monotone-transform invariance"


ALL_SUITES = (
    suite_episode_equivalence,
    suite_ntxent_equivalence,
    suite_semi_reduction,
    suite_gradients,
    suite_complete_form,
    suite_stability,
    suite_eer_units,
)


def run_all(out=print):
    all_ok = True
    for suite in ALL_SUITES:
        t0 = time.perf_counter()
        name, ok, detail = suite()
        dt = time.perf_counter() - t0
        all_ok &= ok
        out(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} ({dt:.2f}s)")
    return all_ok
