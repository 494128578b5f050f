"""Desk-scale trainer for the three learning regimes.

Supervised batches go through two-step class sampling and prototype
construction; unsupervised batches through two augmented views per sample;
semi-supervised batches mix both with a configurable unlabeled fraction of
the batch slots. All three regimes minimize the same ratio loss, only the
batch builder and affinity block layout differ.

Every step encodes one feature pool (labeled rows, then augmented views) in
one forward pass, builds its batch from slices of the output, and takes one
backward pass on the pool gradient.

Updates are plain SGD with momentum, in place, on the encoder's one parameter
vector and on the trainable kernel parameters (gamma/beta or the projection).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import affinity as aff
from . import batch as batching
from . import loss as losses
from .encoder import Encoder
from .evaluate import eer, score_trials
from .kernels import GAMMA_MIN, KINDS, KernelParams
from .synth import AugmentationSpec, draw_transform, paired_views

MODES = ("supervised", "semi", "unsupervised")
# Every random draw of a run comes from one of these streams of its seed.
STREAMS = {"synth": 0, "init": 1, "data": 2, "augment": 3, "trials": 4, "split": 5, "hide": 6}


def substream(seed, name):
    """The named random stream of a run seeded with ``seed``."""
    return np.random.default_rng([seed, STREAMS[name]])


@dataclass
class TrainConfig:
    mode: str = "supervised"
    steps: int = 600
    lr: float = 0.05
    momentum: float = 0.9
    batch_slots: int = 40
    k_prime: int = 3  # samples per class: 1 query + K'-1 supports
    unlabeled_fraction: float = 0.10
    affinity: str = "type3"  # supervised affinity layout: type3 or type4
    kernel: str = "affine-cosine"
    tau: float = 0.5
    gamma: float = 10.0
    beta: float = -5.0
    hidden_dim: int = 64
    embedding_dim: int = 16
    epsilon: float = 1e-12
    ratio_transform: str = "negated-ratio"
    relaxed_unlabeled: bool = False
    eval_every: int = 0  # steps between validation EER rows, 0 = off

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0.0 <= self.unlabeled_fraction <= 1.0:
            raise ValueError("unlabeled_fraction must be in [0, 1]")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.batch_slots < 1:
            raise ValueError("batch_slots must be >= 1")
        if self.k_prime < 2:
            raise ValueError("k_prime must be >= 2")
        if self.affinity not in ("type3", "type4"):
            raise ValueError("supervised affinity must be type3 or type4")
        if self.kernel not in KINDS:
            raise ValueError(f"unknown kernel {self.kernel!r}; expected one of {', '.join(KINDS)}")
        if self.eval_every < 0:
            raise ValueError("eval_every must be >= 0 (0 = off)")
        for name in ("hidden_dim", "embedding_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("lr", "momentum", "tau", "gamma", "beta", "epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        # train() clamps gamma to GAMMA_MIN only after a step: a smaller start
        # would train that step with inverted similarities.
        if self.kernel == "affine-cosine" and not self.gamma >= GAMMA_MIN:
            raise ValueError(f"gamma must be >= {GAMMA_MIN} for the affine-cosine kernel, "
                             f"got {self.gamma}")


@dataclass
class StepRecord:
    step: int
    mode: str
    loss: float
    mean_ratio: float
    grad_norm: float
    unlabeled_per_batch: int
    eer_on_val: float = None


@dataclass
class TrainResult:
    encoder: Encoder
    kernel_params: KernelParams
    metrics: list = field(default_factory=list)


class SgdMomentum:
    """SGD with momentum, in place: v = m*v + g, then p -= lr*v; the first v is a copy of g."""

    def __init__(self, lr, momentum):
        self.lr = lr
        self.momentum = momentum
        self.velocity = {}

    def update(self, encoder, grad, kernel_params, grad_kernel):
        """One step on ``encoder.flat`` and on the KernelParams fields ``grad_kernel`` names."""
        steps = [(encoder, "flat", grad)] + [(kernel_params, k, g) for k, g in grad_kernel.items()]
        for owner, name, g in steps:
            v = self.velocity.get(name)
            if v is None:
                v = g.copy() if isinstance(g, np.ndarray) else g  # not g's own buffer
            else:
                v *= self.momentum
                v += g
            self.velocity[name] = v
            p = getattr(owner, name)
            p -= self.lr * v
            setattr(owner, name, p)  # the same array, or gamma/beta's new float


def batch_composition(config):
    """(N classes, N' unlabeled) filling ``batch_slots`` at the unlabeled fraction.

    Unlabeled count rounds to nearest, but stays >= 1 whenever the fraction is
    positive; remaining slots hold N = slots // K' labeled classes.
    """
    slots = config.batch_slots
    frac = {"supervised": 0.0, "unsupervised": 1.0}.get(config.mode, config.unlabeled_fraction)
    if frac == 0.0:
        n_unlabeled = 0
    else:
        n_unlabeled = max(1, round(frac * slots))
    n_classes = (slots - n_unlabeled) // config.k_prime
    if frac < 1.0 and n_classes < 1:
        raise ValueError("batch_slots too small for the labeled branch")
    return n_classes, n_unlabeled


def compose_semi_minibatch(labeled_pool, unlabeled_pool, config, rng, aug_spec, augment_rng):
    """One step's feature pool: the N*K' rows of a two-step sample drawn from
    ``rng``, then ``synth.paired_views`` of N' unlabeled rows under a pair of
    transforms drawn from ``augment_rng``; a part the mode leaves empty is left out.
    """
    n_classes, n_unlabeled = batch_composition(config)
    parts = []
    if n_classes > 0:
        if labeled_pool is None or len(labeled_pool.labels) == 0:
            raise batching.CapacityError("labeled pool is empty")
        lab = batching.two_step_sample(labeled_pool, n_classes, config.k_prime, rng)
        parts.append(lab.samples.reshape(n_classes * config.k_prime, -1))
    if n_unlabeled > 0:
        pool_size = 0 if unlabeled_pool is None else len(unlabeled_pool)
        if pool_size < n_unlabeled:
            raise batching.CapacityError(
                f"need N' = {n_unlabeled} unlabeled rows, the pool has {pool_size}")
        take = rng.choice(pool_size, size=n_unlabeled, replace=False)
        t1 = draw_transform(aug_spec, augment_rng)
        t2 = draw_transform(aug_spec, augment_rng)
        parts.append(paired_views(unlabeled_pool[take], t1, t2))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)  # no copy of one part


def _make_kernel(config, rng):
    if config.kernel == "cosine-temp":
        d = config.embedding_dim
        proj = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, d))
        return KernelParams(kind="cosine-temp", tau=config.tau, proj=proj)
    if config.kernel == "affine-cosine":
        return KernelParams(kind="affine-cosine", gamma=config.gamma, beta=config.beta)
    return KernelParams(kind="sq-euclid")


def train(dataset, config, seed=0, unlabeled_pool=None, aug_spec=None,
          val_dataset=None, val_trials=None):
    """Run one training job; returns the encoder, kernel params and step metrics.

    ``dataset`` is the labeled pool (ignored in unsupervised mode if an
    explicit ``unlabeled_pool`` is given). Deterministic for a fixed seed.
    """
    init_rng = substream(seed, "init")
    data_rng = substream(seed, "data")
    augment_rng = substream(seed, "augment")
    aug_spec = aug_spec or AugmentationSpec()

    f_dim = dataset.features.shape[1] if dataset is not None else unlabeled_pool.shape[1]
    encoder = Encoder(f_dim, config.hidden_dim, config.embedding_dim, init_rng)
    kernel_params = _make_kernel(config, init_rng)
    if unlabeled_pool is None and config.mode == "unsupervised":
        unlabeled_pool = dataset.features
    options = losses.GclOptions(
        epsilon=config.epsilon, ratio_transform=config.ratio_transform
    )
    opt = SgdMomentum(config.lr, config.momentum)
    metrics = []
    # (N, N') is the same at every step, and so is the affinity over it.
    n_classes, n_unlabeled = batch_composition(config)
    if config.mode == "supervised":
        matrix = getattr(aff, f"{config.affinity}_affinity")(n_classes)
    else:
        matrix = aff.semi_affinity(n_classes, n_unlabeled, config.relaxed_unlabeled)

    split = n_classes * config.k_prime  # the pool's labeled rows come first
    for step in range(config.steps):
        pool = compose_semi_minibatch(dataset, unlabeled_pool, config, data_rng,
                                      aug_spec, augment_rng)
        z, cache = encoder.forward(pool)
        rep = None
        if n_classes:
            rep = batching.build_prototype_batch(z[:split].reshape(n_classes, config.k_prime, -1))
        if n_unlabeled:
            views = batching.build_augmented_batch(z[split:])
            rep = views if rep is None else batching.merge_semi_batch(rep, views)
        # The same loss in every regime; only the batch and its affinity differ.
        report = losses.gcl_grad(rep, matrix, kernel_params, options)

        # One check covers the loss and every gradient: NaN and inf propagate
        # through the sum, and a non-finite value must not reach the update.
        flat = report.grad_z.ravel(order="K")
        grad_norm = math.sqrt(flat @ flat)  # np.linalg.norm's arithmetic
        if not np.isfinite(report.loss + grad_norm + sum(report.grad_kernel.values())).all():
            raise FloatingPointError(_divergence(step, report, grad_norm))

        # Push entry gradients back through prototypes and views onto the pool.
        grad = encoder.backward(cache, batching.backprop_to_sources(rep, report.grad_z))
        opt.update(encoder, grad, kernel_params, report.grad_kernel)
        kernel_params.gamma = max(kernel_params.gamma, GAMMA_MIN)

        rec = StepRecord(
            step=step,
            mode=config.mode,
            loss=report.loss,
            mean_ratio=report.mean_ratio,
            grad_norm=grad_norm,
            unlabeled_per_batch=rep.n_unlabeled,
        )
        if config.eval_every and val_trials is not None and (step + 1) % config.eval_every == 0:
            rec.eer_on_val = evaluate_encoder(encoder, val_dataset, val_trials)
        metrics.append(rec)

    return TrainResult(encoder=encoder, kernel_params=kernel_params, metrics=metrics)


def _divergence(step, report, grad_norm):
    """Message for a step whose loss or gradients are not finite."""
    if not np.isfinite(report.loss):
        return f"training diverged at step {step} in the loss forward pass: loss={report.loss}"
    bad = [] if np.isfinite(grad_norm) else [f"embedding gradient (norm {grad_norm})"]
    bad += [f"kernel gradient {name}" for name, g in report.grad_kernel.items()
            if not np.all(np.isfinite(g))]
    return (f"training diverged at step {step} in the loss backward pass: "
            f"{' and '.join(bad) or 'gradient sum'} not finite at loss={report.loss}")


def evaluate_encoder(encoder, dataset, trials):
    emb = encoder(dataset.features)
    scores, labels = score_trials(trials, emb)
    return eer(scores, labels).eer
