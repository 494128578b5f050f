"""The parts of gclkit that ``perfbench/`` reads, checked from the package side.

``perfbench/`` changes only in benchmark changes, so a rename or a removed
name in ``src/`` breaks the benchmark without any edit to it. It imports
``gclkit.backend`` and ``gclkit._core_py``, records ``gclkit.BACKEND_NAME``
in its provenance (``compare.py`` refuses runs whose value differs), builds
its held-out sets with ``cli.split_dataset`` and ``cli.substream``, builds its
engine batches by hand with explicit tags (so they must pass the batch tag
rule), reads the anchor mask as ``affinity.validate(...).active``, calls
``_core_py.ratio_terms`` with six positional arguments on the layouts as
built (int8), and its
tracer wraps every public function of the traced modules, asserts that traced
and untraced losses are bit-equal, and reports spans by name: each name in
``run.LAYER_SPANS`` is a per-layer metric, so deleting the function behind it
deletes the metric.
"""

import ast
import importlib
import inspect
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import gclkit
from gclkit import _core_py, affinity, cli, kernels, loss, synth
from gclkit import batch as batching
from gclkit import evaluate as evaluation
from gclkit import train as training

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import spans  # noqa: E402
import workloads  # noqa: E402
from test_ratio_kernel import _close, reference_ratio_terms  # noqa: E402

MODES = ("supervised", "semi", "unsupervised")

# The run.LAYER_SPANS names that _run's train() reaches, by mode; the other
# names are reached only by the benchmark's engine calls.
_EVERY_MODE = {
    "train.compose_semi_minibatch", "encoder.Encoder.forward", "encoder.Encoder.backward",
    "batch.backprop_to_sources", "affinity.validate", "kernels.exponent_matrix",
    "kernels.ExponentMatrix.backward", "loss.ratio_terms", "loss.gcl_grad",
    "train.SgdMomentum.update", "train.loop", "evaluate.score_trials", "evaluate.eer",
}
_LABELED = {"batch.two_step_sample", "batch.build_prototype_batch"}
_UNLABELED = {"synth.draw_transform", "batch.build_augmented_batch", "affinity.semi_affinity"}
TRAINING_SPANS = {
    "supervised": _EVERY_MODE | _LABELED | {"affinity.type3_affinity"},
    "semi": _EVERY_MODE | _LABELED | _UNLABELED | {"batch.merge_semi_batch"},
    "unsupervised": _EVERY_MODE | _UNLABELED,
}
ENGINE_SPANS = {"affinity.type1_affinity", "affinity.type2_affinity",
                "affinity.type4_affinity", "loss.gcl", "loss.gcl_semi"}


def test_names_the_benchmark_imports():
    assert gclkit.BACKEND_NAME == "python"
    assert importlib.import_module("gclkit.backend").BACKEND_NAME == "python"
    assert callable(_core_py.ratio_terms)
    with pytest.raises(ImportError):
        from gclkit import _core  # noqa: F401
    assert workloads.cli is cli and callable(cli.split_dataset)
    for seed in (1, 5):
        assert (cli.substream(seed, "trials").random(3)
                == np.random.default_rng([seed, 4]).random(3)).all()


def _layer_spans():
    """``run.LAYER_SPANS``, read from the source: importing run.py rewrites the
    BLAS thread variables of the whole test process."""
    for node in ast.parse((PERFBENCH / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYER_SPANS"
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py assigns no LAYER_SPANS")


def test_layer_spans_name_gclkit_functions():
    names = _layer_spans()
    assert "train.loop" in names
    assert set(names) == set().union(ENGINE_SPANS, *TRAINING_SPANS.values())
    defined_as = {span: name for name, span in spans.RENAMES.items()}
    for span in names:
        module, *path = defined_as.get(span, span).split(".")
        obj = importlib.import_module(f"gclkit.{module}")
        for attr in path:
            obj = getattr(obj, attr, None)
        assert inspect.isfunction(obj), span


def _bindings():
    """Every function the tracer may rebind, by (owner, attribute)."""
    owners = [importlib.import_module(f"gclkit.{m}") for m in spans.TRACED_MODULES]
    owners += [gclkit, importlib.import_module("gclkit.backend")]
    found = {}
    for owner in owners:
        for attr, obj in list(vars(owner).items()):
            if inspect.isfunction(obj):
                found[(owner.__name__, attr)] = obj
            elif inspect.isclass(obj) and obj.__module__.startswith("gclkit."):
                for meth, fn in vars(obj).items():
                    if inspect.isfunction(fn):
                        found[(obj.__qualname__, meth)] = fn
    return found


def _run(mode):
    ds = synth.synth_dataset(synth.SyntheticConfig(n_speakers=16, utterances_per_speaker=8,
                                                   feature_dim=8, seed=0))
    labeled, unlabeled = synth.hide_labels(ds, 8, np.random.default_rng(0))
    trials = evaluation.build_trials(ds, 20, np.random.default_rng(1))
    cfg = training.TrainConfig(mode=mode, steps=5, batch_slots=12, k_prime=2,
                               hidden_dim=8, embedding_dim=4, eval_every=5)
    res = training.train(labeled, cfg, seed=1, unlabeled_pool=unlabeled,
                         val_dataset=ds, val_trials=trials)
    return [r.loss for r in res.metrics]


@pytest.mark.parametrize("mode", MODES)
def test_traced_training_matches_and_uninstalls(mode):
    before = _bindings()
    want = _run(mode)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert loss.ratio_terms is not _core_py.ratio_terms
        got = _run(mode)
    finally:
        tracer.uninstall()

    assert got == want
    # Every per-layer metric of a training step is recorded in the modes
    # that reach it, so a refactor cannot quietly turn one into zero.
    recorded = {name for name, (_, calls) in tracer.by_span().items() if calls > 0}
    assert recorded & set(_layer_spans()) == TRAINING_SPANS[mode]
    assert loss.ratio_terms is _core_py.ratio_terms
    assert training.draw_transform is synth.draw_transform
    assert training.eer is evaluation.eer
    assert _bindings() == before


def test_engine_units_pass_the_batch_rules():
    # A tag rule that rejected perfbench's hand-built batches would fail every
    # engine unit of both workloads.
    rng = np.random.default_rng(0)
    for n_labeled, n_unlabeled in ((13, 0), (10, 3)):
        batch = workloads._batch(rng, n_labeled, n_unlabeled)
        for got, want in zip((batch.groups, batch.indices, batch.slots),
                             batching.canonical_tags(n_labeled, n_unlabeled)):
            assert np.array_equal(got, want)
    units = workloads._engine_grid(np.random.default_rng(1), {13: 1})
    assert units
    for unit in units:
        assert np.isfinite(workloads.run_engine_unit(unit).loss), unit.key
        # run.compare_backends reads the anchor mask through validate()
        active = affinity.validate(workloads.build_affinity(unit), unit.batch).active
        assert active.dtype == bool and active.shape == (unit.batch.size,)


def test_ratio_kernel_call_of_compare_backends_is_dtype_blind():
    # run.compare_backends calls the kernel with six positional arguments on
    # the int8 layouts, and the tracer's validate hook counts their nonzeros:
    # both must read the same as on float64 copies.
    seen = set()
    for unit in workloads._engine_grid(np.random.default_rng(1), {13: 1}):
        if (unit.layout, unit.kernel.kind) in seen:
            continue
        seen.add((unit.layout, unit.kernel.kind))
        a = workloads.build_affinity(unit)
        as_float = affinity.AffinityMatrix(a.a.astype(float))
        assert a.a.dtype == np.int8
        active = affinity.validate(a, unit.batch).active.astype(np.uint8)
        e = np.ascontiguousarray(kernels.exponent_matrix(unit.batch, unit.kernel).e)
        inv = 1.0 / max(1, int(active.sum()))
        for log_transform in (False, True):
            got = _core_py.ratio_terms(e, np.ascontiguousarray(a.a), active, 1e-12,
                                       log_transform, inv)
            want = _core_py.ratio_terms(e, np.ascontiguousarray(as_float.a), active, 1e-12,
                                        log_transform, inv)
            assert got[0] == want[0], unit.key
            for g, w in zip(got[1:], want[1:]):
                assert np.array_equal(g, w, equal_nan=True), unit.key
                assert np.array_equal(np.signbit(g), np.signbit(w)), unit.key
        counts = [defaultdict(float), defaultdict(float)]
        for c, m in zip(counts, (a, as_float)):
            spans._count_validate(c, (m, unit.batch), {}, m)
        assert counts[0] == counts[1]
        assert counts[0]["affinity.nnz"] == np.count_nonzero(as_float.a)
    assert {layout for layout, _ in seen} == set(workloads.LAYOUTS)


def test_compare_backends_call_runs_the_engine_kernel():
    # run.compare_backends's exact call, which loss.ratio_terms.python_us
    # times: affine-cosine units, one per (M, layout), contiguous copies, a
    # uint8 anchor mask and six positional arguments, so the call builds a
    # throwaway plan and takes and returns full (M, M) matrices. It must
    # agree with the direct formulation and with gcl_grad on a matrix reused
    # through its own plan, within test_ratio_kernel's tolerance: the engine
    # evaluates the support block only, with the block's own products.
    seen = set()
    for unit in workloads._engine_grid(np.random.default_rng(2), {13: 1, 50: 1}):
        key = (unit.batch.size, unit.layout)
        if unit.kernel.kind != "affine-cosine" or key in seen:
            continue
        seen.add(key)
        a = workloads.build_affinity(unit)
        active = affinity.validate(a, unit.batch).active.astype(np.uint8)
        e = np.ascontiguousarray(kernels.exponent_matrix(unit.batch, unit.kernel).e)
        a_copy = np.ascontiguousarray(a.a)
        inv = 1.0 / max(1, int(active.sum()))
        for log_transform in (False, True):
            transform = "negated-log-ratio" if log_transform else "negated-ratio"
            options = loss.GclOptions(ratio_transform=transform)
            got = _core_py.ratio_terms(e, a_copy, active, 1e-12, log_transform, inv)
            want = reference_ratio_terms(e, a_copy, active, 1e-12, log_transform, inv)
            for _ in range(2):  # the second evaluation reuses the plan
                report = loss.gcl_grad(unit.batch, a, unit.kernel, options)
            for g, w, x in zip(got, want, (report.loss, report.per_anchor)):
                assert _close(g, w) and _close(x, g), (unit.key, log_transform)
            assert _close(got[2], want[2]), (unit.key, log_transform)
            # The engine forms no gradient on e: its grad_z is held to the
            # reference's full gradient, back-propagated through the whole
            # matrix.
            em, g = kernels.exponent_matrix(unit.batch, unit.kernel), want[2]
            grad_z, _ = em.backward((g @ em.yt.T, g.T @ em.x, g.sum(axis=1)))
            assert _close(report.grad_z, grad_z), (unit.key, log_transform)
    assert {layout for _, layout in seen} == set(workloads.LAYOUTS)
    assert {m for m, _ in seen} == {26, 100}
