#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of gclkit.

    python3 perfbench/run.py --workload {regimes,wide} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; gclkit is imported from ``src/``. Workloads
are described in ``perfbench/workloads.py``. BLAS is pinned to one thread
before numpy is imported.

``--trace 0`` runs passes of the workload until ``--seconds`` have elapsed
(the first pass always completes) and reports the end-to-end metrics. Every
time is scaled to reference time with the host speed probe of
``perfbench/speed.py``, which runs between units; the raw times are printed
beside the result.

  setup_s       median over 3 fresh interpreters (this one and two children)
                of the time from the start of the script to the end of set-up:
                imports, dataset synthesis, trial lists, engine batches and a
                warm-up of one shortened unit of each kind
  wall_s        sum over the training and evaluation units of a pass of each
                unit's median time (train() plus its held-out evaluation) over
                the passes; on ``regimes`` this is criterion 6's run
  step_us.MODE  median over the train() calls of one regime of wall time / steps
                (supervised: the full labeled pool, not criterion 6's P=16 runs,
                whose steps cost less)
  eval_ms       median of embed + score_trials + eer per held-out evaluation
  call_us.p50   median and 99th percentile over every engine call of every
  call_us.p99   pass (build the affinity, evaluate the loss)
  eer.MODE      mean held-out EER of the first pass (fixed training data)
  peak_rss_mb   peak resident set size of the benchmark process

Sample counts are printed on the ``samples:`` line.

``--trace 1`` runs the same pass untraced, traced (see ``perfbench/spans.py``)
and untraced again, checks that all three give bit-identical losses and that
the spans account for train()'s wall time, and reports per-layer metrics: for
each span its self time per operation (a training step, an evaluation or an
engine call) and its calls per pass, the counts the tracer takes, and the
tracing overhead (the traced pass's wall time over the untraced passes' mean).

Every unit is an operation that fails if it raises or fails its output check
(finite losses and gradients, EER in [0, 1]); so do criterion 6's bars on
``regimes``, the oracle comparisons and, if a compiled kernel is built, its
parity with the NumPy kernel. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the provenance that ``perfbench/compare.py`` checks.
"""

import os
import sys
import time

T_START = time.perf_counter()
BLAS_PINS = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_PINS)  # must precede the first numpy import

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "gclkit" / "__init__.py").is_file():
    sys.exit(f"error: no gclkit sources at {SRC}; run from the root of a repository checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import gclkit  # noqa: E402
from gclkit import _core_py  # noqa: E402
from gclkit import affinity as aff_mod  # noqa: E402
from gclkit import evaluate as eval_mod  # noqa: E402
from gclkit import kernels as kernels_mod  # noqa: E402
from gclkit import loss as loss_mod  # noqa: E402
from gclkit import train as train_mod  # noqa: E402
from gclkit.encoder import Encoder  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from workloads import EngineUnit, EvalUnit, TrainUnit  # noqa: E402

try:
    from gclkit import _core as _compiled  # only counts if already built; never compiled here
except ImportError:
    _compiled = None

MODES = ("supervised", "semi", "unsupervised")
ORACLE_TOL = 1e-10
SETUP_REPEATS = 3  # set-ups timed per run, each in a fresh interpreter
# In the traced run, the spans plus train.loop must account for train()'s wall
# time, and the named spans (all but train.loop) for most of it.
COVERAGE_MIN, COVERAGE_MAX = 0.97, 1.01
NAMED_SHARE_MIN = 0.90
# Per-layer spans reported by name; every workload's pass runs each of them.
LAYER_SPANS = (
    "synth.draw_transform",
    "train.compose_semi_minibatch",
    "batch.two_step_sample",
    "batch.build_prototype_batch",
    "batch.build_augmented_batch",
    "batch.merge_semi_batch",
    "batch.backprop_to_sources",
    "affinity.type1_affinity",
    "affinity.type2_affinity",
    "affinity.type3_affinity",
    "affinity.type4_affinity",
    "affinity.semi_affinity",
    "affinity.validate",
    "kernels.exponent_matrix",
    "kernels.ExponentMatrix.backward",
    "loss.ratio_terms",
    "loss.gcl",
    "loss.gcl_grad",
    "loss.gcl_semi",
    "encoder.Encoder.forward",
    "encoder.Encoder.backward",
    "train.SgdMomentum.update",
    "train.loop",
    "evaluate.score_trials",
    "evaluate.eer",
)


class Tally:
    """Operations attempted and the ones that raised or failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, key, problem):
        self.attempted += 1
        if problem:
            self.failures.append(f"{key}: {problem}")


def _finite(*arrays):
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


def _evaluate(encoder, held):
    emb = encoder(held.features)
    scores, labels = eval_mod.score_trials(held.trials, emb)
    return eval_mod.eer(scores, labels).eer


class PassResult:
    def __init__(self):
        self.wall = None  # seconds, set only when the pass completed
        # Timed intervals (t0, t1), scaled to reference time when reported:
        self.unit_s = {}  # training or evaluation unit key -> train() + evaluation
        self.step_us = {}  # quality bucket -> [(t0, t1, steps)] per train() call
        self.steps = 0
        self.eval_ms = []  # embed + score_trials + eer
        self.call_us = {}  # engine unit key -> one engine call
        self.train_wall = {m: 0.0 for m in MODES}
        self.eer = {}  # unit key -> (quality bucket, EER)
        self.losses = {}  # unit key -> losses, for the bit-equality check


def _run_unit(unit, out, tally, tracer):
    def tag(t):
        if tracer is not None:
            tracer.tag = t

    try:
        if isinstance(unit, EngineUnit):
            tag("engine")
            t0 = time.perf_counter()
            rep = workloads.run_engine_unit(unit)
            out.call_us[unit.key] = (t0, time.perf_counter())
            parts = [rep.loss, rep.per_anchor]
            if unit.with_grad:
                parts += [rep.grad_z, *rep.grad_kernel.values()]
            out.losses[unit.key] = (rep.loss,)
            tally.record(unit.key, None if _finite(*parts) else "non-finite loss or gradient")
            return
        if isinstance(unit, EvalUnit):
            encoder = Encoder(unit.held.features.shape[1], 64, 16,
                              np.random.default_rng([unit.seed, 1]))
            tag("eval")
            t0 = time.perf_counter()
            e = _evaluate(encoder, unit.held)
            out.eval_ms.append((t0, time.perf_counter()))
            out.unit_s[unit.key] = out.eval_ms[-1]
            out.eer[unit.key] = ("untrained", e)
            tally.record(unit.key, None if 0.0 <= e <= 1.0 else f"EER {e} outside [0, 1]")
            return
        tag(f"train:{unit.mode}")
        t0 = time.perf_counter()
        res = train_mod.train(unit.dataset, unit.config, seed=unit.seed,
                              unlabeled_pool=unit.unlabeled_pool)
        t1 = time.perf_counter()
        steps = unit.config.steps
        out.step_us.setdefault(unit.quality, []).append((t0, t1, steps))
        out.train_wall[unit.mode] += t1 - t0
        out.steps += steps
        losses = tuple(r.loss for r in res.metrics)
        out.losses[unit.key] = losses
        ok = (len(losses) == steps
              and _finite(losses, [r.grad_norm for r in res.metrics],
                          *res.encoder.params.values(),
                          res.kernel_params.gamma, res.kernel_params.beta))
        tally.record(unit.key, None if ok else "non-finite loss, gradient or parameter")
        if unit.held is None:
            out.unit_s[unit.key] = (t0, t1)
            return
        tag("eval")
        t1 = time.perf_counter()
        e = _evaluate(res.encoder, unit.held)
        t2 = time.perf_counter()
        out.eval_ms.append((t1, t2))
        out.unit_s[unit.key] = (t0, t2)
        out.eer[unit.key] = (unit.quality, e)
        tally.record(f"{unit.key}/eval", None if 0.0 <= e <= 1.0 else f"EER {e} outside [0, 1]")
    except Exception as exc:  # one failed operation must not stop the run
        tally.record(unit.key, f"{type(exc).__name__}: {exc}")
    finally:
        tag(None)


def _order(workload, seed, pass_index):
    rng = np.random.default_rng([seed, 104729, pass_index])
    return [workload.units[i] for i in rng.permutation(len(workload.units))]


def run_pass(workload, seed, pass_index, tally, tracer=None, deadline=None, probe=None):
    """One pass in a seeded order; stops early only after ``deadline``.

    ``probe`` (a ``speed.SpeedProbe``) is timed between units.
    """
    out = PassResult()
    t0 = time.perf_counter()
    for unit in _order(workload, seed, pass_index):
        if deadline is not None and time.perf_counter() >= deadline:
            return out
        if probe is not None:
            probe.maybe_probe()
        _run_unit(unit, out, tally, tracer)
    out.wall = time.perf_counter() - t0
    return out


def quality(first_pass):
    """Mean EER per bucket over the first pass."""
    buckets = {}
    for bucket, e in first_pass.eer.values():
        buckets.setdefault(bucket, []).append(e)
    return {b: float(np.mean(v)) for b, v in buckets.items()}


def check_criterion6(means, tally):
    """Criterion 6's bars: supervised <= 0.05, unsupervised gain >= 0.30, semi <= sup(P)."""
    need = ("untrained", "supervised", "unsupervised", "semi", "sup_p")
    if any(k not in means for k in need):
        tally.record("criterion6", "first pass incomplete")
        return
    gain = 1.0 - means["unsupervised"] / means["untrained"]
    problems = []
    if means["supervised"] > 0.05:
        problems.append(f"supervised EER {means['supervised']:.4f} > 0.05")
    if gain < 0.30:
        problems.append(f"unsupervised relative gain {gain:.3f} < 0.30")
    if means["semi"] > means["sup_p"]:
        problems.append(f"semi EER {means['semi']:.4f} > sup(P) {means['sup_p']:.4f}")
    tally.record("criterion6", "; ".join(problems))


def check_oracles(workload, tally):
    """Engine inputs at the smallest grid N against the naive oracles, to 1e-10."""
    engine = [u for u in workload.units if isinstance(u, EngineUnit)
              and u.with_grad and u.key.endswith("/0")
              and u.options.ratio_transform == "negated-ratio"]
    n_min = min(u.batch.n_labeled + u.batch.n_unlabeled for u in engine)
    for u in engine:
        if u.batch.n_labeled != n_min:
            continue
        if u.layout == "type3" and u.kernel.kind == "sq-euclid":
            want = loss_mod.oracle_episode(u.batch)
        elif u.layout == "type4":
            want = loss_mod.oracle_ntxent(u.batch, u.kernel)
        else:
            continue
        got = loss_mod.gcl(u.batch, workloads.build_affinity(u), u.kernel, u.options).loss
        diff = abs(got - want)
        tally.record(f"oracle/{u.key}", None if diff <= ORACLE_TOL else f"|diff| = {diff:.3e}")


def compare_backends(workload, tally):
    """Time ratio_terms on every backend that imports; check parity when there are two."""
    backends = {"python": _core_py}
    if _compiled is not None:
        backends["cython"] = _compiled
    seen, cases = set(), []
    for u in workload.units:
        if not isinstance(u, EngineUnit) or u.kernel.kind != "affine-cosine":
            continue
        key = (u.batch.size, u.layout)
        if key in seen:
            continue
        seen.add(key)
        a = workloads.build_affinity(u)
        active = aff_mod.validate(a, u.batch).active.astype(np.uint8)
        e = kernels_mod.exponent_matrix(u.batch, u.kernel).e
        cases.append((u.key, np.ascontiguousarray(e), np.ascontiguousarray(a.a), active,
                      1.0 / max(1, int(active.sum()))))
    per_call = {}
    for name, impl in backends.items():
        total = 0.0
        for _, e, a, active, inv in cases:
            for log_transform in (False, True):
                reps = []
                for _ in range(5):
                    t0 = time.perf_counter()
                    impl.ratio_terms(e, a, active, 1e-12, log_transform, inv)
                    reps.append(time.perf_counter() - t0)
                total += statistics.median(reps)
        per_call[name] = total / (2 * len(cases)) * 1e6
    if _compiled is not None:
        for key, e, a, active, inv in cases:
            for log_transform in (False, True):
                got = _compiled.ratio_terms(e, a, active, 1e-12, log_transform, inv)
                want = _core_py.ratio_terms(e, a, active, 1e-12, log_transform, inv)
                ok = abs(got[0] - want[0]) < 1e-12 and np.allclose(got[2], want[2], atol=1e-13)
                tally.record(f"parity/{key}/log={log_transform}",
                             None if ok else "compiled and NumPy kernels disagree")
    return per_call


def setup(name, seed):
    """Build the workload's inputs and warm up; returns seconds since start too."""
    workload = workloads.build(name, seed)
    warm = Tally()
    seen = set()
    # One unit of each kind and size, training shortened and not evaluated:
    # the first pass must not pay for first-time allocations (the allocator
    # adapts to large arrays). The evaluation unit warms the evaluation up.
    for unit in workload.units:
        kind = (type(unit).__name__, getattr(unit, "mode", None),
                unit.batch.size if isinstance(unit, EngineUnit) else None)
        if kind in seen:
            continue
        seen.add(kind)
        if isinstance(unit, TrainUnit):
            unit = dataclasses.replace(unit, held=None,
                                       config=dataclasses.replace(unit.config, steps=5))
        _run_unit(unit, PassResult(), warm, None)
    return workload, warm, time.perf_counter() - T_START


def fresh_setup_seconds(args, repeats):
    """Set-up time of ``repeats`` fresh interpreters, one after the other."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    vals = []
    for _ in range(repeats):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True,
                             timeout=120)
        vals.append(float(out.stdout.split()[-1]))
    return vals


def provenance(args):
    sha = None
    if (ROOT / ".git").exists():  # a checkout without .git must not report an enclosing repo
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "gclkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": gclkit.BACKEND_NAME,
        "compiled_kernel_built": _compiled is not None,
        "blas_pins": {k: os.environ.get(k) for k in BLAS_PINS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _times(passes, scaled):
    """Every timed metric, with ``scaled(t0, t1)`` turning an interval into seconds."""
    step = {m: [scaled(t0, t1) / n * 1e6 for p in passes for t0, t1, n in p.step_us.get(m, ())]
            for m in MODES}
    evals = [scaled(*iv) * 1e3 for p in passes for iv in p.eval_ms]
    calls = [scaled(*iv) * 1e6 for p in passes for iv in p.call_us.values()]
    per_unit = {}
    for p in passes:
        for key, iv in p.unit_s.items():
            per_unit.setdefault(key, []).append(scaled(*iv))
    metrics = {
        "wall_s": _metric(sum(statistics.median(v) for v in per_unit.values()), "s"),
        **{f"step_us.{m}": _metric(statistics.median(step[m]), "us") for m in MODES},
        "eval_ms": _metric(statistics.median(evals), "ms"),
        "call_us.p50": _metric(np.percentile(calls, 50), "us"),
        "call_us.p99": _metric(np.percentile(calls, 99), "us"),
    }
    counts = {"wall_s.units": len(per_unit),
              "wall_s.min_per_unit": min(len(v) for v in per_unit.values()),
              **{f"step_us.{m}": len(step[m]) for m in MODES},
              "eval_ms": len(evals), "call_us": len(calls)}
    return metrics, counts


def end_to_end(setup_runs, passes, means, probe):
    """End-to-end metrics, every time in reference time (see speed.py).

    ``setup_runs`` are set-up times in seconds, scaled with every probe of
    the run. Returns the metrics, the times unscaled and the sample counts.
    """
    setup_s = statistics.median(setup_runs)
    metrics, counts = _times(passes, probe.scaled)
    raw, _ = _times(passes, lambda t0, t1: t1 - t0)
    metrics = {"setup_s": _metric(setup_s * probe.scale(), "s"), **metrics}
    raw = {"setup_s": _metric(setup_s, "s"), **raw}
    counts = {"setup_s": len(setup_runs), **counts}
    metrics.update({f"eer.{m}": _metric(means[m], "ratio") for m in MODES})
    metrics["peak_rss_mb"] = _metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    counts["passes"] = len(passes)
    counts["complete_passes"] = sum(p.wall is not None for p in passes)
    return metrics, raw, counts


def per_layer(tracer, traced, untraced_walls, backend_us):
    ops = traced.steps + len(traced.eval_ms) + len(traced.call_us)
    spans_ = tracer.by_span()
    metrics = {}
    for name in LAYER_SPANS:
        self_s, calls = spans_.get(name, (0.0, 0))
        metrics[f"{name}.self_us"] = _metric(self_s / ops * 1e6, "us")
        metrics[f"{name}.calls"] = _metric(calls, "count")
    train_tags = {f"train:{m}" for m in MODES}
    c = tracer.counts
    metrics["affinity.builds_per_step"] = _metric(
        tracer.outer_affinity_builds(train_tags) / traced.steps, "count")
    metrics["affinity.nnz_fraction"] = _metric(c["affinity.nnz"] / c["affinity.cells"], "ratio")
    metrics["loss.entries"] = _metric(c["loss.entries"] / c["loss.evaluations"], "count")
    metrics["evaluate.eer.thresholds"] = _metric(
        c["evaluate.eer.thresholds"] / c["evaluate.eer.calls"], "count")
    metrics["loss.ratio_terms.python_us"] = _metric(backend_us["python"], "us")
    coverage = {}
    for m in MODES:
        per_mode = tracer.by_span({f"train:{m}"})
        accounted = sum(s for s, _ in per_mode.values())
        loop = per_mode.get("train.loop", (0.0, 0))[0]
        coverage[m] = (accounted / traced.train_wall[m], (accounted - loop) / traced.train_wall[m])
    metrics["trace.named_share"] = _metric(min(named for _, named in coverage.values()), "ratio")
    metrics["trace.overhead"] = _metric(traced.wall / statistics.mean(untraced_walls), "ratio")
    return metrics, coverage, ops


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, warm up, print the set-up seconds and exit")
    args = parser.parse_args(argv)

    probe = speed.SpeedProbe()
    workload, tally, setup_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(setup_s)
        return 0
    setup_runs = [setup_s]
    if not args.trace:
        setup_runs += fresh_setup_seconds(args, SETUP_REPEATS - 1)
    print(f"setup: " + ", ".join(f"{x:.3f}" for x in setup_runs) + " s in fresh interpreters, "
          f"{len(workload.units)} units per pass")

    if args.trace:
        untraced = run_pass(workload, args.seed, 0, tally)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run_pass(workload, args.seed, 0, tally, tracer)
        finally:
            tracer.uninstall()
        after = run_pass(workload, args.seed, 0, tally)
        same = untraced.losses == traced.losses == after.losses
        tally.record("trace/bit-equal-losses",
                     None if same else "traced losses differ from untraced losses")
        passes = [untraced]
    else:
        deadline = time.perf_counter() + args.seconds
        passes = [run_pass(workload, args.seed, 0, tally, probe=probe)]
        while time.perf_counter() < deadline:
            passes.append(run_pass(workload, args.seed, len(passes), tally,
                                   deadline=deadline, probe=probe))

    means = quality(passes[0])
    if workload.criterion6:
        check_criterion6(means, tally)
    check_oracles(workload, tally)
    backend_us = compare_backends(workload, tally)

    if args.trace:
        metrics, coverage, ops = per_layer(tracer, traced, (untraced.wall, after.wall),
                                           backend_us)
        print(f"traced pass: {ops} operations ({traced.steps} training steps, "
              f"{len(traced.eval_ms)} evaluations, {len(traced.call_us)} engine calls)")
        problems = []
        for m, (acc, named) in coverage.items():
            print(f"  train() {m}: spans + train.loop cover {acc:.1%}, named spans {named:.1%}")
            if not COVERAGE_MIN <= acc <= COVERAGE_MAX:
                problems.append(f"{m}: spans + train.loop cover {acc:.1%} of train()")
            if named < NAMED_SHARE_MIN:
                problems.append(f"{m}: named spans cover {named:.1%} of train()")
        tally.record("trace/coverage", "; ".join(problems))
    else:
        metrics, raw, counts = end_to_end(setup_runs, passes, means, probe)
        print("samples: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
        print(f"speed probe: median {statistics.median(probe.samples) * 1e6:.1f} us over "
              f"{len(probe.samples)} probes (reference {speed.REFERENCE_US:.0f} us); raw: "
              + ", ".join(f"{k}={m['value']:.6g}" for k, m in raw.items()))
    print("EER means (first pass): " + ", ".join(f"{k}={v:.4f}" for k, v in sorted(means.items())))
    print("ratio_terms per call: " + ", ".join(f"{k} {v:.1f} us" for k, v in backend_us.items()))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    failed = len(tally.failures)
    print(f"  {'fail_ratio':40s} {failed / tally.attempted:.6g} ({failed}/{tally.attempted})")
    for line in tally.failures[:20]:
        print(f"FAILED {line}")
    print(json.dumps({"provenance": provenance(args)}))
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
