import os
import subprocess
import sys

import numpy as np
import pytest

import gclkit
from gclkit import _core_py
from gclkit import affinity as aff
from gclkit import verify
from gclkit.backend import BACKEND_NAME, ratio_terms


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

    def test_backend_name_valid(self):
        assert BACKEND_NAME in ("cython", "python")
        assert gclkit.BACKEND_NAME == BACKEND_NAME

    @pytest.mark.parametrize("log_transform", [False, True])
    def test_python_fallback_matches_selected_backend(self, rng, log_transform):
        for _ in range(20):
            e, a, active = self._random_case(rng, n=int(rng.integers(2, 7)))
            inv_norm = 1.0 / active.sum()
            got = ratio_terms(e, a, active, 1e-12, log_transform, inv_norm)
            want = _core_py.ratio_terms(e, a, active, 1e-12, log_transform, inv_norm)
            assert got[0] == pytest.approx(want[0], abs=1e-13)
            assert np.allclose(got[1], want[1], atol=1e-13)
            assert np.allclose(got[2], want[2], atol=1e-13)

    def test_env_override_forces_python(self):
        code = ("import gclkit.backend as b; print(b.BACKEND_NAME)")
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True,
                             env={**os.environ, "GCLKIT_BACKEND": "python"})
        assert out.stdout.strip() == "python"

    def test_inactive_rows_untouched(self, rng):
        e, a, active = self._random_case(rng, n=3)
        active[0] = 0
        loss, r, de = ratio_terms(e, a, active, 1e-12, False, 1.0 / active.sum())
        assert r[0] == 0.0
        assert np.all(de[0] == 0.0)
