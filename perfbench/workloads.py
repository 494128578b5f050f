"""Workload definitions: what one pass of each workload runs.

A pass is a fixed list of units, each one timed and checked on its own:

- a training unit runs ``train()`` and then one held-out evaluation (embed,
  ``score_trials``, ``eer``) of the encoder it returns;
- an evaluation unit scores an untrained encoder (criterion 6's baseline);
- an engine unit builds one affinity and evaluates the loss on a pre-built
  batch, with the gradient or value-only, without the trainer. The engine
  units cover layouts type1-4 and the semi layout (strict and relaxed), the
  three kernels and both ratio transforms.

Every workload has all three kinds, so every end-to-end metric means the same
thing on every workload; the workloads differ in which kind carries the
weight and in size:

- ``regimes`` is ROADMAP's criterion 6: dataset seeds 1-5, each trained
  supervised, unsupervised, semi and supervised on P=16 speakers at the
  default config (600 steps, N=13), then a 400-trial EER. Dominated by
  Python bookkeeping. Its engine units run at N=13.
- ``wide`` is the same three regimes at ``batch_slots=384`` (N=128,
  N'=384, N=115 + N'=38) on 400 speakers x 12 utterances, 80 held out,
  P=200 labeled. Each regime trains four times per pass (20 supervised or
  semi steps, 5 unsupervised ones); the first of the four is evaluated on a
  20k-trial list. Dominated by the O(M^2) layers and by the quadratic EER
  sweep. Its engine units run once per pass at each N in {50, 128, 256},
  from sparse type-1 affinities to dense type-4 ones.

The training data of the quality runs is fixed per workload (criterion 6's
seeds), so the EERs repeat exactly and guard quality; ``seed`` generates the
engine inputs and the order of units in every pass.
"""

from dataclasses import dataclass

import numpy as np

from gclkit import affinity as aff
from gclkit import cli
from gclkit import loss as losses
from gclkit.batch import RepresentationBatch
from gclkit.evaluate import build_trials
from gclkit.kernels import KernelParams
from gclkit.synth import SyntheticConfig, hide_labels, synth_dataset
from gclkit.train import TrainConfig

NAMES = ("regimes", "wide")
LAYOUTS = ("type1", "type2", "type3", "type4", "semi", "semi-relaxed")
KERNELS = ("sq-euclid", "cosine-temp", "affine-cosine")
TRANSFORMS = ("negated-ratio", "negated-log-ratio")
EMBED_DIM = 16


@dataclass
class EvalSet:
    features: np.ndarray
    trials: object


@dataclass
class TrainUnit:
    key: str  # unique within the workload
    mode: str  # supervised / semi / unsupervised
    quality: str  # EER and step-time bucket: supervised / semi / unsupervised / sup_p
    dataset: object
    unlabeled_pool: object
    config: TrainConfig
    seed: int
    held: EvalSet  # None: not evaluated


@dataclass
class EvalUnit:
    key: str
    seed: int
    held: EvalSet


@dataclass
class EngineUnit:
    key: str
    layout: str
    kernel: KernelParams
    options: losses.GclOptions
    batch: object
    with_grad: bool


@dataclass
class Workload:
    name: str
    units: list
    criterion6: bool  # check criterion 6's regime-ordering bars on pass 1


def _criterion6_round(seed, steps, n_trials):
    """One dataset seed of criterion 6: sup, unsup, semi and sup(P=16)."""
    ds = synth_dataset(SyntheticConfig(seed=seed), np.random.default_rng([seed, 0]))
    train_ds, held_ds = cli.split_dataset(ds, 16, seed)
    held = EvalSet(held_ds.features, build_trials(held_ds, n_trials, cli.substream(seed, "trials")))
    labeled_p, unlabeled = hide_labels(train_ds, 16, np.random.default_rng([seed, 6]))
    cfg = {m: TrainConfig(mode=m, steps=steps) for m in ("supervised", "semi", "unsupervised")}
    return [
        TrainUnit(f"s{seed}/supervised", "supervised", "supervised", train_ds, None,
                  cfg["supervised"], seed, held),
        TrainUnit(f"s{seed}/unsupervised", "unsupervised", "unsupervised", None,
                  train_ds.features, cfg["unsupervised"], seed, held),
        TrainUnit(f"s{seed}/semi", "semi", "semi", labeled_p, unlabeled, cfg["semi"], seed, held),
        TrainUnit(f"s{seed}/sup_p", "supervised", "sup_p", labeled_p, None,
                  cfg["supervised"], seed, held),
        EvalUnit(f"s{seed}/untrained", seed, held),
    ]


def _wide_round(seed, steps, repeats):
    """The three regimes at batch_slots=384; ``steps`` maps each mode to its step count.

    Each mode trains ``repeats`` times, with training seeds ``seed`` to
    ``seed + repeats - 1``; only the first run of each mode is evaluated.
    """
    ds = synth_dataset(SyntheticConfig(n_speakers=400, utterances_per_speaker=12, seed=seed),
                       np.random.default_rng([seed, 0]))
    train_ds, held_ds = cli.split_dataset(ds, 80, seed)
    held = EvalSet(held_ds.features, build_trials(held_ds, 20000, cli.substream(seed, "trials")))
    labeled_p, unlabeled = hide_labels(train_ds, 200, np.random.default_rng([seed, 6]))
    cfg = {m: TrainConfig(mode=m, steps=n, batch_slots=384) for m, n in steps.items()}
    data = {"supervised": (train_ds, None), "unsupervised": (None, train_ds.features),
            "semi": (labeled_p, unlabeled)}
    units = [EvalUnit(f"s{seed}/untrained", seed, held)]
    for mode, (labeled, pool) in data.items():
        for r in range(repeats):
            units.append(TrainUnit(f"s{seed}/{mode}/{r}", mode, mode, labeled, pool, cfg[mode],
                                   seed + r, held if r == 0 else None))
    return units


def _batch(rng, n_labeled, n_unlabeled):
    """Two views per sample, clustered by sample, in canonical flattened order."""
    groups, indices = [], []
    for group, count in ((0, n_labeled), (1, n_unlabeled)):
        groups += [group] * (2 * count)
        indices += list(np.repeat(np.arange(1, count + 1), 2))
    n = n_labeled + n_unlabeled
    centers = rng.normal(0.0, 0.5 / np.sqrt(EMBED_DIM), size=(n, EMBED_DIM))
    z = np.repeat(centers, 2, axis=0) + rng.normal(0.0, 0.2 / np.sqrt(EMBED_DIM),
                                                   size=(2 * n, EMBED_DIM))
    return RepresentationBatch(z, np.array(groups), np.array(indices),
                               np.tile([1, 2], n), n_labeled, n_unlabeled)


def _engine_grid(rng, repeats):
    """The layout x kernel x transform grid, ``repeats[N]`` times at each N."""
    kernels = {
        "sq-euclid": KernelParams("sq-euclid"),
        "cosine-temp": KernelParams("cosine-temp", tau=0.5,
                                    proj=rng.normal(0.0, 1.0 / np.sqrt(EMBED_DIM),
                                                    size=(EMBED_DIM, EMBED_DIM))),
        "affine-cosine": KernelParams("affine-cosine", gamma=10.0, beta=-5.0),
    }
    units = []
    for n, n_repeats in repeats.items():
        n_unl = max(1, n // 4)
        batches = {"labeled": _batch(rng, n, 0), "mixed": _batch(rng, n - n_unl, n_unl)}
        combo = 0
        for layout in LAYOUTS:
            batch = batches["mixed" if layout.startswith("semi") else "labeled"]
            for kname in KERNELS:
                for transform in TRANSFORMS:
                    options = losses.GclOptions(ratio_transform=transform)
                    # One combination in four also runs value-only, as gcl() users do.
                    grads = (True, False) if combo % 4 == 0 else (True,)
                    combo += 1
                    for with_grad in grads:
                        kind = "grad" if with_grad else "value"
                        for r in range(n_repeats):
                            key = f"N{n}/{layout}/{kname}/{transform}/{kind}/{r}"
                            units.append(EngineUnit(key, layout, kernels[kname],
                                                    options, batch, with_grad))
    return units


def build(name, seed):
    """Generate every input of one pass; ``gclkit`` receives only these."""
    rng = np.random.default_rng([seed, 7919])
    if name == "regimes":
        units = [u for s in (1, 2, 3, 4, 5) for u in _criterion6_round(s, 600, 400)]
        units += _engine_grid(rng, {13: 20})
        return Workload(name, units, criterion6=True)
    if name == "wide":
        # An unsupervised step costs about five supervised or semi steps; the
        # step counts give each regime's train() call a similar wall time.
        units = _wide_round(1, {"supervised": 20, "semi": 20, "unsupervised": 5}, 4)
        units += _engine_grid(rng, {50: 1, 128: 1, 256: 1})
        return Workload(name, units, criterion6=False)
    raise ValueError(f"unknown workload {name!r}")


def build_affinity(unit):
    """The affinity an engine unit evaluates, built through the module attribute."""
    b = unit.batch
    if unit.layout.startswith("semi"):
        return aff.semi_affinity(b.n_labeled, b.n_unlabeled, unit.layout == "semi-relaxed")
    return getattr(aff, f"{unit.layout}_affinity")(b.n_labeled)


def run_engine_unit(unit):
    a = build_affinity(unit)
    if unit.layout.startswith("semi"):
        return losses.gcl_semi(unit.batch, a, unit.kernel, unit.options, with_grad=unit.with_grad)
    fn = losses.gcl_grad if unit.with_grad else losses.gcl
    return fn(unit.batch, a, unit.kernel, unit.options)
