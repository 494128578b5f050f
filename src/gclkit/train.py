"""Desk-scale trainer for the three learning regimes.

Supervised batches go through two-step class sampling and prototype
construction; unsupervised batches through two augmented views per sample;
semi-supervised batches mix both with a configurable unlabeled fraction of
the batch slots. All three regimes minimize the same ratio loss, only the
batch builder and affinity block layout differ.

Updates are plain SGD with momentum on the encoder parameters and on the
trainable kernel parameters (gamma/beta or the projection head).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import affinity as aff
from . import batch as batching
from . import loss as losses
from .encoder import Encoder
from .evaluate import eer, score_trials
from .kernels import GAMMA_MIN, KernelParams
from .synth import AugmentationSpec, draw_transform

MODES = ("supervised", "semi", "unsupervised")


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
        if self.k_prime < 2:
            raise ValueError("k_prime must be >= 2")
        if self.affinity not in ("type3", "type4"):
            raise ValueError("supervised affinity must be type3 or type4")


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
    def __init__(self, lr, momentum):
        self.lr = lr
        self.momentum = momentum
        self.velocity = {}

    def update(self, params, grads):
        for name, g in grads.items():
            v = self.velocity.get(name)
            v = g if v is None else self.momentum * v + g
            self.velocity[name] = v
            params[name] = params[name] - self.lr * v
        return params


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


def compose_semi_minibatch(labeled_pool, unlabeled_pool, config, rng):
    """Draw one mini-batch; either part may be empty depending on the mode."""
    n_classes, n_unlabeled = batch_composition(config)
    lab = None
    unl = None
    if n_classes > 0:
        if labeled_pool is None or len(labeled_pool.labels) == 0:
            raise batching.CapacityError("labeled pool is empty")
        lab = batching.two_step_sample(labeled_pool, n_classes, config.k_prime, rng)
    if n_unlabeled > 0:
        if unlabeled_pool is None or len(unlabeled_pool) == 0:
            raise batching.CapacityError("unlabeled pool is empty")
        take = rng.choice(len(unlabeled_pool), size=n_unlabeled, replace=False)
        unl = batching.UnlabeledMiniBatch(samples=unlabeled_pool[take])
    return lab, unl


def _make_kernel(config, rng):
    if config.kernel == "cosine-temp":
        d = config.embedding_dim
        proj = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, d))
        return KernelParams(kind="cosine-temp", tau=config.tau, proj=proj)
    if config.kernel == "affine-cosine":
        return KernelParams(kind="affine-cosine", gamma=config.gamma, beta=config.beta)
    return KernelParams(kind="sq-euclid")


def _labeled_branch(encoder, minibatch, config):
    n, kp, f = minibatch.samples.shape
    flat = minibatch.samples.reshape(n * kp, f)
    z, cache = encoder.forward(flat)
    rep = batching.build_prototype_batch(z.reshape(n, kp, -1))
    return rep, cache


def _unlabeled_branch(encoder, minibatch, config, aug_spec, rng):
    caches = []

    def encode(x):
        z, cache = encoder.forward(x)
        caches.append(cache)
        return z

    t1 = draw_transform(aug_spec, rng)
    t2 = draw_transform(aug_spec, rng)
    rep = batching.build_augmented_batch(minibatch, t1, t2, encode)
    return rep, caches[0]


def train(dataset, config, seed=0, unlabeled_pool=None, aug_spec=None,
          val_dataset=None, val_trials=None, init_rng=None, data_rng=None,
          augment_rng=None):
    """Run one training job; returns the encoder, kernel params and step metrics.

    ``dataset`` is the labeled pool (ignored in unsupervised mode if an
    explicit ``unlabeled_pool`` is given). Deterministic for a fixed seed.
    """
    init_rng = init_rng or np.random.default_rng([seed, 1])
    data_rng = data_rng or np.random.default_rng([seed, 2])
    augment_rng = augment_rng or np.random.default_rng([seed, 3])
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

    for step in range(config.steps):
        lab_mb, unl_mb = compose_semi_minibatch(dataset, unlabeled_pool, config, data_rng)

        rep0 = cache0 = rep1 = cache1 = None
        if lab_mb is not None:
            rep0, cache0 = _labeled_branch(encoder, lab_mb, config)
        if unl_mb is not None:
            rep1, cache1 = _unlabeled_branch(encoder, unl_mb, config, aug_spec, augment_rng)

        if config.mode == "supervised":
            rep = rep0
            report = losses.gcl_grad(rep, matrix, kernel_params, options)
        else:
            if rep0 is not None and rep1 is not None:
                rep = batching.merge_semi_batch(rep0, rep1)
            else:
                rep = rep0 if rep0 is not None else rep1
            report = losses.gcl_semi(rep, matrix, kernel_params, options, with_grad=True)

        # One check covers the loss and every gradient: NaN and inf propagate
        # through the sum, and a non-finite value must not reach the update.
        flat = report.grad_z.ravel(order="K")
        grad_norm = math.sqrt(flat @ flat)  # np.linalg.norm's arithmetic
        if not np.isfinite(report.loss + grad_norm + sum(report.grad_kernel.values())).all():
            raise FloatingPointError(_divergence(step, report, grad_norm))

        # Push entry gradients back through prototypes/views onto the encodings.
        grad_src = batching.backprop_to_sources(rep, report.grad_z)
        grads = {}
        split = 0 if rep0 is None else len(rep0.source_entry)
        if cache0 is not None:
            grads, _ = encoder.backward(cache0, grad_src[:split])
        if cache1 is not None:
            g, _ = encoder.backward(cache1, grad_src[split:])
            grads = {k: grads[k] + v for k, v in g.items()} if grads else g
        for name in ("gamma", "beta", "proj"):
            if name in report.grad_kernel:
                grads[f"kernel.{name}"] = report.grad_kernel[name]

        params = {**encoder.params,
                  "kernel.gamma": kernel_params.gamma, "kernel.beta": kernel_params.beta}
        if kernel_params.proj is not None:
            params["kernel.proj"] = kernel_params.proj
        opt.update(params, grads)
        for k in encoder.params:
            encoder.params[k] = params[k]
        kernel_params.gamma = max(float(params["kernel.gamma"]), GAMMA_MIN)
        kernel_params.beta = float(params["kernel.beta"])
        if kernel_params.proj is not None:
            kernel_params.proj = params["kernel.proj"]

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
