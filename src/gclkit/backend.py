"""Name of the ratio-loss kernel, for the benchmark's provenance.

The only kernel is NumPy's ``gclkit._core_py.ratio_terms``, which
``gclkit.loss`` imports directly. This module stays only because
``perfbench/`` reads it: the tracer imports it and the run records
``BACKEND_NAME`` in its provenance. It goes with ROADMAP item 1's benchmark
change.
"""

BACKEND_NAME = "python"
