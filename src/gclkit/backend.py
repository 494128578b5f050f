"""Selects the ratio-loss kernel: compiled extension if available, NumPy otherwise.

Set GCLKIT_BACKEND=python to force the fallback (used by the benchmark and
by tests that compare the two implementations).
"""

import os

from . import _core_py

if os.environ.get("GCLKIT_BACKEND", "").lower() == "python":
    _impl = _core_py
else:
    try:
        from . import _core as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _core_py

BACKEND_NAME = "cython" if _impl.IS_COMPILED else "python"


def ratio_terms(e, a, active, eps, log_transform, inv_norm):
    import numpy as np

    e = np.ascontiguousarray(e, dtype=np.float64)
    a = np.ascontiguousarray(a, dtype=np.float64)
    if _impl.IS_COMPILED and not a.flags.writeable:
        # The compiled signature takes writable buffers (it only reads a);
        # AffinityMatrix.a is read-only.
        a = a.copy()
    active = np.ascontiguousarray(active, dtype=np.uint8)
    return _impl.ratio_terms(e, a, active, float(eps), bool(log_transform), float(inv_norm))
