"""Golden training runs: metrics.csv and checkpoints pinned by sha256.

Each configuration trains 60 steps at seed 1 through the CLI on the default
synthetic data. The metrics digest covers metrics.csv below its
``# generated=`` line; the checkpoint has no timestamp and is hashed whole.
Any change to losses, gradients, batch bookkeeping or the optimizer shows up
as a digest mismatch.

The digests were recaptured, with numpy 2.4 on x86-64, when the loss began
to evaluate every kernel's exponent as one product of factors plus a
per-row constant (``2z.y - |y|^2 - |z|^2``, ``(gamma v) @ v.T + beta``,
``(v / tau) @ v.T``) and to return two coefficients per row instead of a
gradient on the block: the backward pass multiplies the block of weights by
the factors and scales rows, where it used to form the gradient cell by
cell and multiply it by v (or z). The products, sums and gradient terms
group their operations differently, so the values moved by rounding only:
over these 60-step runs the per-step loss and mean ratio moved by at most
4.9e-16 relative and the gradient norm by at most 6.1e-15 (over 600 steps,
3.3e-14 and 2.3e-12, both in ``unsupervised-sq-euclid``), and no held-out
EER moved. All six digests moved. The earlier digests dated from the
support-block evaluation (``semi`` and ``semi-relaxed-cosine`` from the
one-pass feature pool). A deliberate numeric change must recapture the
digests it moves and say why.

``semi-relaxed-cosine``, the one digest on the kernel's masked path, was
recaptured again when that path took the dense path's storage rule: each
positive cell holds ``-rest`` times its share of the row's numerator, in
place of a second half-buffer of positive cells with its own row
coefficient, and the masked row sums skip the other cells instead of adding
their zeros. The per-step loss, mean ratio and gradient norm moved by at
most 3.8e-16 relative over 60 steps (4.8e-16 over 600), and the held-out
EER stayed 0.0750 at both lengths.

Two trial lists are pinned the same way, as the text ``save_trials`` writes:
the ``trials.txt`` of ``gclkit synth --seed 1`` (400 pairs over 16 held-out
speakers of 20 utterances) and the 20000 pairs that the ``wide`` benchmark
workload draws over its 80 held-out speakers of 12 utterances. Their
digests date from the per-trial draw loop, before ``build_trials`` decoded
the list from one bulk draw of words: the bulk draw must give the same
pairs.

Evaluation is pinned on two of those lists, each scored by an untrained
``Encoder(32, 64, 16, np.random.default_rng([1, 1]))`` as the benchmark's
evaluation units score it: the 20000 ``wide`` pairs and the 400 pairs that
criterion 6 draws for dataset seed 1 (the default synthetic data, 16 held-out
speakers). Each keeps the sha256 of the score array's bytes and the whole
``EerResult``. They were captured with the per-pair scorer and the full
threshold sweep, before ``score_trials`` scored in blocks and ``eer``
bisected for the crossing: both must give the same bits.
"""

import hashlib

import numpy as np
import pytest

from gclkit import cli
from gclkit import evaluate as ev
from gclkit.encoder import Encoder
from gclkit.synth import SyntheticConfig, synth_dataset

CONFIGS = {
    "supervised-type3": ("supervised", ""),
    "supervised-type4-k4": ("supervised", "train.affinity = type4\ntrain.k_prime = 4\n"),
    "unsupervised": ("unsupervised", ""),
    "semi": ("semi", ""),
    "semi-relaxed-cosine": (
        "semi", "affinity.relaxed_unlabeled = true\ntrain.kernel = cosine-temp\n"
    ),
    "unsupervised-sq-euclid": ("unsupervised", "train.kernel = sq-euclid\n"),
}

# name -> (sha256 of metrics.csv below the header, sha256 of checkpoint.txt)
GOLDEN = {
    "supervised-type3": (
        "001730cc69a42b03b6381331837190acdf21a14de7dd93a3d0ce3430dac7a7e2",
        "e0c4177269952f137667173221c2140ed492c73d6df6983b52141c248e911366",
    ),
    "supervised-type4-k4": (
        "0531650af66e18358ceca3a1f1700fca45b5b6beaf42c2a4d85a7509825f8631",
        "89169ace7f03ae1b7ca88205a093765de97e9d34f44015f256cee4d4cb0f902f",
    ),
    "unsupervised": (
        "6529ca66366a0b17abf1b8c58dcfb9c51c0c7913393539da85279bbc4104cad1",
        "482eeb46c6528f1a2ec89d31e035f989932479ffd096bb25619484b7c3d1a4d4",
    ),
    "semi": (
        "b0589833afe212e7a2ed1f3ec2755b25ce76d77b5df96f498eab4b57e349f31d",
        "fb2072d7ff4ec0005270b52e2a0b94caf200159426f99246a04ecbb40f21c11a",
    ),
    "semi-relaxed-cosine": (
        "74c150f1744f5771085670f6e53d494d0ae6be6d096ae06d1077fb5bc5a1b79e",
        "6b9aa648e7c5cbc10b8ade21bc653b722ef928ccadbe57c8e7c12aaa0bab8944",
    ),
    "unsupervised-sq-euclid": (
        "1d0ff1a6705cc3c8e98e71b960d0e51ce30445fea3dda27a5dbc1d625f6235ed",
        "f29c4ced1e16a9fa00a0bf7fdf40647411d7f1905d44b7aed5e57f89a8b7651e",
    ),
}


def run_digests(tmp_path, name):
    mode, extra = CONFIGS[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("train.steps = 60\n" + extra)
    out = tmp_path / "run"
    base = ["--config", str(cfg), "--seed", "1", "--out", str(out)]
    assert cli.main(["synth"] + base) == 0
    assert cli.main(["train", "--mode", mode] + base) == 0
    header, body = (out / "metrics.csv").read_bytes().split(b"\n", 1)
    assert header.startswith(b"# gclkit-metrics v1 generated=")
    return (hashlib.sha256(body).hexdigest(),
            hashlib.sha256((out / "checkpoint.txt").read_bytes()).hexdigest())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_run(tmp_path, name):
    assert run_digests(tmp_path, name) == GOLDEN[name]


# name -> sha256 of the trial list's save_trials text
GOLDEN_TRIALS = {
    "synth": "d8ec328d83e9ba55a69eabd5c6b810a42674505ce70e908f0bdcf1dee08be5df",
    "wide": "861e77b399c3b47278c90773514a4e926daa698854975d269c0c8b096b67a476",
}


def test_golden_synth_trials(tmp_path):
    assert cli.main(["synth", "--seed", "1", "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "trials.txt").read_bytes()).hexdigest()
    assert digest == GOLDEN_TRIALS["synth"]


def test_golden_wide_trials(tmp_path):
    dataset = synth_dataset(SyntheticConfig(n_speakers=400, utterances_per_speaker=12, seed=1),
                            np.random.default_rng([1, 0]))
    _, held = cli.split_dataset(dataset, 80, 1)
    ev.save_trials(tmp_path / "trials.txt",
                   ev.build_trials(held, 20000, cli.substream(1, "trials")))
    digest = hashlib.sha256((tmp_path / "trials.txt").read_bytes()).hexdigest()
    assert digest == GOLDEN_TRIALS["wide"]


# name -> (sha256 of the score array's bytes, EerResult)
GOLDEN_SCORES = {
    "wide": ("745b7bb5b985372e4a996b266f08c0df98ba5c400d79607eb7c493eef6287750",
             ev.EerResult(eer=0.1084, threshold=0.41213330287643635,
                          n_target=10000, n_nontarget=10000)),
    "criterion6": ("18cdfa0c1189e88d0d34d64305d37f702d186a8c13c0277058455a0f75d32e6a",
                   ev.EerResult(eer=0.125, threshold=0.3922685715286058,
                                n_target=200, n_nontarget=200)),
}

SCORED_LISTS = {
    "wide": (SyntheticConfig(n_speakers=400, utterances_per_speaker=12, seed=1), 80, 20000),
    "criterion6": (SyntheticConfig(seed=1), 16, 400),
}


@pytest.mark.parametrize("name", sorted(SCORED_LISTS))
def test_golden_scores(name):
    config, n_held, n_pairs = SCORED_LISTS[name]
    dataset = synth_dataset(config, np.random.default_rng([1, 0]))
    _, held = cli.split_dataset(dataset, n_held, 1)
    trials = ev.build_trials(held, n_pairs, cli.substream(1, "trials"))
    encoder = Encoder(held.features.shape[1], 64, 16, np.random.default_rng([1, 1]))
    scores, labels = ev.score_trials(trials, encoder(held.features))
    assert scores.dtype == np.float64
    assert (hashlib.sha256(scores.tobytes()).hexdigest(), ev.eer(scores, labels)) == \
        GOLDEN_SCORES[name]
