import math

import numpy as np
import pytest

import gclkit
from gclkit import _core_py
from gclkit import affinity as aff
from gclkit import verify


class TestSuites:
    def test_all_suites_pass(self, capsys):
        assert verify.run_all()
        out = capsys.readouterr().out
        assert out.count("[PASS]") == len(verify.ALL_SUITES)

    def test_sign_flip_mutation_is_caught(self):
        # a broken engine that returns the negated loss must fail the
        # equivalence suites
        def flipped(*args, **kwargs):
            report = gclkit.gcl(*args, **kwargs)
            report.loss = -report.loss
            return report

        for suite in (verify.suite_episode_equivalence, verify.suite_ntxent_equivalence):
            _, ok, _ = suite(cases=5, gcl_fn=flipped)
            assert not ok

    def test_scaled_mutation_is_caught_by_semi_reduction(self):
        def scaled(*args, **kwargs):
            report = gclkit.gcl(*args, **kwargs)
            report.loss = report.loss * (1.0 + 1e-9)
            return report

        _, ok, _ = verify.suite_semi_reduction(cases=5, gcl_fn=scaled)
        assert not ok


class TestBackend:
    def _random_case(self, rng, n=4):
        a = aff.type4_affinity(n).a
        e = rng.normal(size=(2 * n, 2 * n))
        e = 0.5 * (e + e.T)
        active = (a > 0).any(axis=1).astype(np.uint8)
        return e, a, active

    @staticmethod
    def _loop_reference(e, a, active, eps, log_transform, inv_norm):
        """The kernel's docstring formula, one anchor and one cell at a time,
        without the max-exponent shift."""
        m = e.shape[0]
        r = np.zeros(m)
        de = np.zeros((m, m))
        total = 0.0
        for i in range(m):
            if not active[i]:
                continue
            num = sum(math.exp(e[i, j]) for j in range(m) if a[i, j] > 0)
            den = sum(math.exp(e[i, j]) for j in range(m) if a[i, j] != 0) + eps
            r[i] = num / den
            total += math.log(r[i]) if log_transform else r[i]
            dl_dr = -inv_norm / r[i] if log_transform else -inv_norm
            for j in range(m):
                if a[i, j] != 0:
                    pos = math.exp(e[i, j]) if a[i, j] > 0 else 0.0
                    de[i, j] = dl_dr * (pos * den - num * math.exp(e[i, j])) / den ** 2
        return -inv_norm * total, r, de

    @pytest.mark.parametrize("log_transform", [False, True])
    def test_matches_loop_reference(self, rng, log_transform):
        for k in range(20):
            n = int(rng.integers(2, 7))
            if k % 2:
                e, a, active = self._random_case(rng, n=n)
            else:
                a = aff.type3_affinity(n).a
                e = rng.normal(size=(2 * n, 2 * n))
                active = (a > 0).any(axis=1).astype(np.uint8)
            inv_norm = 1.0 / active.sum()
            got = _core_py.ratio_terms(e, a, active, 1e-12, log_transform, inv_norm)
            want = self._loop_reference(e, a, active, 1e-12, log_transform, inv_norm)
            assert got[0] == pytest.approx(want[0], abs=1e-13)
            assert np.allclose(got[1], want[1], atol=1e-13)
            assert np.allclose(got[2], want[2], atol=1e-13)

    def test_inactive_rows_untouched(self, rng):
        e, a, active = self._random_case(rng, n=3)
        active[0] = 0
        loss, r, de = _core_py.ratio_terms(e, a, active, 1e-12, False, 1.0 / active.sum())
        assert r[0] == 0.0
        assert np.all(de[0] == 0.0)
