"""Golden training runs: metrics.csv and checkpoints pinned by sha256.

Each configuration trains 60 steps at seed 1 through the CLI on the default
synthetic data. The metrics digest covers metrics.csv below its
``# generated=`` line; the checkpoint has no timestamp and is hashed whole.
Any change to losses, gradients, batch bookkeeping or the optimizer shows up
as a digest mismatch.

The digests were captured at commit 9653e11 (before the source map became
two index arrays and the affinity builders lost their loops), with numpy 2.4
on x86-64 and the NumPy backend. The sixth, ``unsupervised-sq-euclid``, where
no kernel parameter is trained, was captured the same way at commit 38784c4.
A deliberate numeric change must recapture them and say why.
"""

import hashlib

import pytest

from gclkit import cli

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
        "7f3f57282525799fd6b75230a6c844fd499def2d8a799b1d885d02348354bb15",
        "1b2c3c1024504610de99ad2e097e4d764e664a05ec4e66770432bf46381d6412",
    ),
    "supervised-type4-k4": (
        "4b76777b7900cf8f3bedd01c12e2a1578dae11b6e4b2a84569266ceabb50b485",
        "6915e56a0deacc897924ea3ba011d68f9c48eb8f0e33d82506f8b33aaf24ce29",
    ),
    "unsupervised": (
        "1b023ff37cd3b986f63a9d6470edf11b306af437a23f9d71d5370adc9a30d71a",
        "8f29a0d7cd2b5106500679fa00c3af66a635758f3daeab4ad0b1219f5e91cf6d",
    ),
    "semi": (
        "642cd6f3a2f774784585a1251f17e71468313ac056ab5b77663f740e92eafb48",
        "df9d151d50ba3b821a88450bdc785fa4169d43fe26f4b696cbe4b04a4eaf467b",
    ),
    "semi-relaxed-cosine": (
        "b355aad0e312898638a27abf1f813dc10b82177a10185b16c230b5af7bcdf59e",
        "377caa136a8c53ccdd8902afa49a32cd68a7b0dbf88f4e0e66f72bdd6d68e634",
    ),
    "unsupervised-sq-euclid": (
        "a14173bddd0bc67d7c899ed1d99addfd60ff319e5125bb34278c63d9fc5d9c27",
        "e3a4397f673838f3d23c7bccaf10250fc8f8d8f129a005908430139c2aa08eed",
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
