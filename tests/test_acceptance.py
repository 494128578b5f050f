"""Exit criteria for the package, one test (and one printed line) each.

Tolerances are pinned here and must not be loosened: 1e-10 for value
equivalences, 1e-4 for gradients, bitwise for the semi reduction, byte
equality for CSV determinism, and the regime-ordering bars of the
end-to-end run.
"""

import time

import numpy as np
import pytest

from gclkit import affinity as aff
from gclkit import cli, verify
from gclkit import loss as losses
from gclkit.encoder import Encoder
from gclkit.evaluate import build_trials, eer, score_trials
from gclkit.kernels import KernelParams
from gclkit.synth import SyntheticConfig, hide_labels, nearest_class_mean_errors, synth_dataset
from gclkit.train import TrainConfig, evaluate_encoder, train

EQUIV_TOL = 1e-10
GRAD_TOL = 1e-4


def announce(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")


def test_criterion_1_episode_equivalence(capsys):
    t0 = time.perf_counter()
    name, ok, detail = verify.suite_episode_equivalence(cases=100)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    announce(capsys, 1, "episode oracle equivalence", ok, f"{detail}, {elapsed:.2f}s")
    assert ok


def test_criterion_2_ntxent_equivalence(capsys):
    name, ok, detail = verify.suite_ntxent_equivalence(cases=100)
    announce(capsys, 2, "NT-Xent oracle equivalence", ok, detail)
    assert ok


def test_criterion_3_semi_reduction(capsys):
    name, ok, detail = verify.suite_semi_reduction(cases=100)
    announce(capsys, 3, "semi reduction bit-equality", ok, detail)
    assert ok


def test_criterion_4_gradient_suite(capsys):
    name, ok, detail = verify.suite_gradients(cases=100)
    announce(capsys, 4, "gradient suite", ok, detail)
    assert ok


def test_criterion_5_complete_form(capsys):
    name, ok, detail = verify.suite_complete_form(cases=50)
    announce(capsys, 5, "complete-form reductions", ok, detail)
    assert ok


def test_criterion_6_regime_ordering(capsys):
    t0 = time.perf_counter()
    seeds = (1, 2, 3, 4, 5)
    results = {"untrained": [], "supervised": [], "unsupervised": [], "semi": [], "sup_p": []}

    def run(mode, dataset, seed, unlabeled_pool=None):
        cfg = TrainConfig(mode=mode, steps=600)
        return train(dataset, cfg, seed=seed, unlabeled_pool=unlabeled_pool)

    for seed in seeds:
        ds = synth_dataset(SyntheticConfig(seed=seed), np.random.default_rng([seed, 0]))
        train_ds, held_ds = cli.split_dataset(ds, 16, seed)
        trials = build_trials(held_ds, 400, cli.substream(seed, "trials"))

        # separability oracle: the data must be easy for a raw-feature
        # nearest-class-mean / cosine scorer before any claim about training
        assert nearest_class_mean_errors(ds) / len(ds.labels) <= 0.01
        assert eer(*score_trials(trials, held_ds.features)).eer <= 0.01

        untrained = Encoder(32, 64, 16, cli.substream(seed, "init"))
        results["untrained"].append(evaluate_encoder(untrained, held_ds, trials))
        results["supervised"].append(
            evaluate_encoder(run("supervised", train_ds, seed).encoder, held_ds, trials))
        results["unsupervised"].append(
            evaluate_encoder(run("unsupervised", None, seed,
                                 unlabeled_pool=train_ds.features).encoder,
                             held_ds, trials))
        labeled_p, unlabeled = hide_labels(train_ds, 16, np.random.default_rng([seed, 6]))
        results["semi"].append(
            evaluate_encoder(run("semi", labeled_p, seed, unlabeled_pool=unlabeled).encoder,
                             held_ds, trials))
        results["sup_p"].append(
            evaluate_encoder(run("supervised", labeled_p, seed).encoder, held_ds, trials))

    means = {k: float(np.mean(v)) for k, v in results.items()}
    elapsed = time.perf_counter() - t0
    rel_gain = 1.0 - means["unsupervised"] / means["untrained"]
    ok = (means["supervised"] <= 0.05
          and rel_gain >= 0.30
          and means["semi"] <= means["sup_p"]
          and elapsed < 600.0)
    announce(capsys, 6, "regime ordering", ok,
             f"untrained={means['untrained']:.4f} supervised={means['supervised']:.4f} "
             f"unsupervised={means['unsupervised']:.4f} (rel. gain {rel_gain:.2f}) "
             f"semi={means['semi']:.4f} vs sup(P=16)={means['sup_p']:.4f}, {elapsed:.0f}s")
    assert means["supervised"] <= 0.05
    assert rel_gain >= 0.30
    assert means["semi"] <= means["sup_p"]
    assert elapsed < 600.0


def test_criterion_7_train_determinism(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "data.n_speakers = 12\ndata.utterances_per_speaker = 6\ndata.feature_dim = 8\n"
        "data.holdout_speakers = 4\ntrain.steps = 15\ntrain.batch_slots = 8\n"
        "train.k_prime = 2\ntrain.hidden_dim = 8\ntrain.embedding_dim = 4\n"
        "eval.n_pairs = 40\n"
    )
    out = tmp_path / "run"
    base = ["--config", str(cfg), "--seed", "21", "--out", str(out)]
    assert cli.main(["synth"] + base) == 0
    assert cli.main(["train"] + base) == 0
    first = (out / "metrics.csv").read_bytes().split(b"\n", 1)[1]
    assert cli.main(["train"] + base) == 0
    second = (out / "metrics.csv").read_bytes().split(b"\n", 1)[1]
    ok = first == second
    announce(capsys, 7, "training determinism", ok,
             f"metrics CSV byte-identical below header across reruns ({len(first)} bytes)")
    assert ok


def test_criterion_8_eer_units(capsys):
    name, ok, detail = verify.suite_eer_units()
    announce(capsys, 8, "EER unit suite", ok, detail)
    assert ok
