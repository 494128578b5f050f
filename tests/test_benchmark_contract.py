"""The parts of gclkit that ``perfbench/`` reads, checked from the package side.

``perfbench/`` changes only in benchmark changes, so a rename or a removed
name in ``src/`` breaks the benchmark without any edit to it. It imports
``gclkit.backend`` and ``gclkit._core_py``, records ``gclkit.BACKEND_NAME``
in its provenance (``compare.py`` refuses runs whose value differs), and its
tracer wraps every public function of the traced modules, asserts that traced
and untraced losses are bit-equal, and reports spans by name.
"""

import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import gclkit
from gclkit import _core_py, loss, synth
from gclkit import evaluate as evaluation
from gclkit import train as training

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402

MODES = ("supervised", "semi", "unsupervised")


def test_names_the_benchmark_imports():
    assert gclkit.BACKEND_NAME == "python"
    assert importlib.import_module("gclkit.backend").BACKEND_NAME == "python"
    assert callable(_core_py.ratio_terms)
    with pytest.raises(ImportError):
        from gclkit import _core  # noqa: F401


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
    recorded = tracer.by_span()
    for name in ("loss.ratio_terms", "evaluate.eer", "train.loop"):
        assert recorded[name][1] > 0, name
    if mode != "supervised":
        assert recorded["synth.draw_transform"][1] > 0
    assert loss.ratio_terms is _core_py.ratio_terms
    assert training.draw_transform is synth.draw_transform
    assert training.eer is evaluation.eer
    assert _bindings() == before
