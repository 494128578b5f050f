"""Outside-in span tracing of gclkit, installed from the benchmark only.

``Tracer.install`` wraps every public function and every public method of a
public class in the traced gclkit modules, and rebinds each alias of a wrapped
function (``loss.py`` binds ``ratio_terms``, ``validate`` and
``semi_affinity`` by name) so that calls through any module go through the
wrapper. ``Tracer.uninstall`` puts every original back. Nothing in ``src/``
changes.

A span is named after the module that defines the function; a function
defined outside the traced modules (``backend.ratio_terms``) is named after
the traced module that binds it. Spans are aggregated in memory as totals per
(tag, parent span, span): self time (duration minus the child spans) and
call count. The tag is set by the caller and names the kind of
operation running (a training mode, an evaluation or an engine call).

Counts that the tracer takes itself (affinity nonzeros, EER thresholds) are
timed and charged to no span, so they do not inflate any self time.
"""

import importlib
import inspect
from collections import defaultdict
from time import perf_counter

import numpy as np

TRACED_MODULES = ("synth", "batch", "affinity", "kernels", "encoder", "loss", "train", "evaluate")
AFFINITY_BUILDERS = frozenset(
    f"affinity.{n}" for n in
    ("type1_affinity", "type2_affinity", "type3_affinity", "type4_affinity", "semi_affinity")
)
# train() has no child span for its own loop body; its self time is that loop.
RENAMES = {"train.train": "train.loop"}


class Tracer:
    def __init__(self):
        self.tag = None
        self._stack = []  # frames: [name, child seconds, stolen seconds]
        self.self_s = defaultdict(float)  # (tag, parent, name) -> seconds
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._restore = []  # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, hook=None):
        stack = self._stack
        self_s, calls = self.self_s, self.calls

        def wrapper(*args, **kwargs):
            frame = [name, 0.0, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0 - frame[2]
                stack.pop()
                key = (self.tag, stack[-1][0] if stack else None, name)
                self_s[key] += dur - frame[1]
                calls[key] += 1
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                h0 = perf_counter()
                hook(self.counts, args, kwargs, result)
                spent = perf_counter() - h0
                for f in stack:
                    f[2] += spent
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- patching --------------------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        import gclkit

        mods = {m: importlib.import_module(f"gclkit.{m}") for m in TRACED_MODULES}
        wrappers = {}  # id(original function) -> wrapper
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__.startswith("gclkit."):
                    if id(obj) not in wrappers:
                        home = obj.__module__.rsplit(".", 1)[-1]
                        name = f"{home if home in mods else short}.{attr}"
                        wrappers[id(obj)] = self._wrap(name, obj, HOOKS.get(name))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        name = f"{short}.{obj.__name__}.{meth}"
                        self._restore.append((obj, meth, fn))
                        setattr(obj, meth, self._wrap(name, fn, HOOKS.get(name)))
        owners = list(mods.values()) + [gclkit, importlib.import_module("gclkit.backend")]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._restore.append((owner, attr, obj))
                    setattr(owner, attr, wrappers[id(obj)])

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------

    def by_span(self, tags=None):
        """{span name: (self seconds, calls)} over the given tags (all if None)."""
        out = defaultdict(lambda: [0.0, 0])
        for key, s in self.self_s.items():
            tag, _, name = key
            if tags is not None and tag not in tags:
                continue
            row = out[RENAMES.get(name, name)]
            row[0] += s
            row[1] += self.calls[key]
        return {k: tuple(v) for k, v in out.items()}

    def outer_affinity_builds(self, tags):
        """Affinity constructions not nested in another constructor."""
        return sum(
            n for (tag, parent, name), n in self.calls.items()
            if tag in tags and name in AFFINITY_BUILDERS and parent not in AFFINITY_BUILDERS
        )


def _count_validate(counts, args, kwargs, result):
    a = args[0].a
    counts["affinity.nnz"] += int(np.count_nonzero(a))
    counts["affinity.cells"] += a.size
    counts["loss.entries"] += a.shape[0]
    counts["loss.evaluations"] += 1


def _count_eer(counts, args, kwargs, result):
    counts["evaluate.eer.thresholds"] += len(np.unique(args[0]))
    counts["evaluate.eer.calls"] += 1


HOOKS = {"affinity.validate": _count_validate, "evaluate.eer": _count_eer}
