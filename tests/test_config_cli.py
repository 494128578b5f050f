import re
from dataclasses import fields

import numpy as np
import pytest

from gclkit import cli, config
from gclkit import evaluate as ev
from gclkit import train as training
from gclkit.encoder import Encoder
from gclkit.kernels import KernelParams
from gclkit.synth import AugmentationSpec, SyntheticConfig, synth_dataset

# --print-defaults byte for byte: its key order and value text are part of the CLI.
PRINTED_DEFAULTS = """\
data.n_speakers = 64
data.utterances_per_speaker = 20
data.feature_dim = 32
data.intra_spread = 0.6
data.inter_spread = 1.0
data.holdout_speakers = 16
data.labeled_speakers = 16
train.mode = supervised
train.steps = 600
train.lr = 0.05
train.momentum = 0.9
train.batch_slots = 40
train.k_prime = 3
train.unlabeled_fraction = 0.1
train.affinity = type3
train.kernel = affine-cosine
train.hidden_dim = 64
train.embedding_dim = 16
train.eval_every = 0
kernel.tau = 0.5
kernel.gamma = 10.0
kernel.beta = -5.0
loss.epsilon = 1e-12
loss.ratio_transform = negated-ratio
affinity.relaxed_unlabeled = False
augment.noise_sigma = 0.5
augment.gain_low = 0.8
augment.gain_high = 1.2
augment.dropout_rate = 0.1
eval.n_pairs = 400
"""


class TestConfigParsing:
    def test_defaults_when_empty(self):
        assert config.parse_config("") == config.DEFAULTS

    def test_override_and_coercion(self):
        values = config.parse_config("train.steps = 10\nkernel.tau = 0.25\n"
                                     "affinity.relaxed_unlabeled = true\n")
        assert values["train.steps"] == 10
        assert values["kernel.tau"] == 0.25
        assert values["affinity.relaxed_unlabeled"] is True

    def test_comments_and_blank_lines(self):
        values = config.parse_config("# a comment\n\ntrain.lr = 0.1  # inline\n")
        assert values["train.lr"] == 0.1

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            config.parse_config("train.stepz = 10")

    def test_bad_boolean_rejected(self):
        with pytest.raises(ValueError, match="boolean"):
            config.parse_config("affinity.relaxed_unlabeled = maybe")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            config.parse_config("train.steps 10")

    def test_format_defaults_round_trips(self):
        assert config.parse_config(config.format_defaults()) == config.DEFAULTS

    def test_every_field_named_by_exactly_one_key(self):
        named = list(config.KEYS.values())
        assert len(set(named)) == len(named)
        owned = {(cls, f.name) for cls in (SyntheticConfig, config.SplitConfig,
                                          training.TrainConfig, AugmentationSpec)
                 for f in fields(cls)}
        assert set(named) == owned - {(SyntheticConfig, "seed")}

    def test_build_reads_keys_and_applies_overrides(self):
        values = config.parse_config("train.steps = 7\naugment.gain_low = 0.5\n")
        tc = config.build(training.TrainConfig, values, mode="semi")
        assert (tc.steps, tc.mode, tc.lr) == (7, "semi", 0.05)
        assert config.build(AugmentationSpec, values).gain_low == 0.5
        assert config.build(SyntheticConfig, values, seed=3).seed == 3


class TestSubstreams:
    def test_named_substreams_are_distinct(self):
        assert training.STREAMS == {"synth": 0, "init": 1, "data": 2, "augment": 3,
                                    "trials": 4, "split": 5, "hide": 6}
        draws = {name: cli.substream(0, name).random() for name in training.STREAMS}
        assert len(set(draws.values())) == len(training.STREAMS)
        for name, index in training.STREAMS.items():
            assert cli.substream(9, name).random() == np.random.default_rng([9, index]).random()

    def test_substream_reproducible(self):
        assert cli.substream(5, "data").random() == cli.substream(5, "data").random()


# case -> what the error names
MALFORMED_CHECKPOINTS = [
    ("no tensor b1", "no tensor b1"),
    ("no hidden=", "meta line has no hidden="),
    ("W1 too wide", r"tensor W1 has shape \(\d+, 3\), the encoder's is \(\d+, 5\)"),
    ("W1 truncated", r"\.txt: line 6: row 3 of tensor W1 needs 3 values, got the end of the file"),
    ("meta token without =",
     r"\.txt: line 2: expected 'meta KEY=VALUE\.\.\.', got 'meta .* hidden3 "),
    ("W1 value not a number",
     r"\.txt: line 5: expected row 2 of tensor W1 as numbers, got '\S+ x \S+'"),
    ("tau=abc", r"\.txt: line 2: expected tau to be a positive number, got 'tau=abc'"),
    ("f_in=x", r"\.txt: line 2: expected f_in to be a whole number from 1, got 'f_in=x'"),
    ("kind=foo", r"\.txt: line 2: expected kind to be one of sq-euclid, cosine-temp, "
                 r"affine-cosine, got 'kind=foo'"),
    ("hidden=-1", r"\.txt: line 2: expected hidden to be a whole number from 1, got 'hidden=-1'"),
]


def malform(path, case):
    """Rewrite a checkpoint of a 3-hidden-unit encoder into one MALFORMED_CHECKPOINTS case."""
    lines = path.read_text().splitlines(keepends=True)
    meta = next(i for i, line in enumerate(lines) if line.startswith("meta "))
    if case == "no tensor b1":
        at = lines.index("tensor b1 3\n")
        del lines[at:at + 2]
    elif case == "no hidden=":
        lines[meta] = lines[meta].replace(" hidden=3", "")
    elif case == "W1 truncated":  # the file ends after the header and two rows of W1
        at = next(i for i, line in enumerate(lines) if line.startswith("tensor W1 "))
        del lines[at + 3:]
    elif case == "meta token without =":
        lines[meta] = lines[meta].replace(" hidden=3", " hidden3")
    elif case == "W1 value not a number":  # the middle value of W1's second row
        at = next(i for i, line in enumerate(lines) if line.startswith("tensor W1 ")) + 2
        values = lines[at].split()
        lines[at] = f"{values[0]} x {values[2]}\n"
    elif re.fullmatch(r"\w+=\S+", case):  # one meta value replaced
        key = case.split("=")[0]
        lines[meta] = re.sub(rf" {key}=\S+", f" {case}", lines[meta])
    else:  # the encoder has 5 hidden units, the tensors 3
        lines[meta] = lines[meta].replace(" hidden=3", " hidden=5")
    path.write_text("".join(lines))


class TestSerialization:
    def test_dataset_round_trip(self, tmp_path):
        ds = synth_dataset(SyntheticConfig(n_speakers=3, utterances_per_speaker=2,
                                           feature_dim=4))
        cli.save_dataset(tmp_path / "d.txt", ds)
        back = cli.load_dataset(tmp_path / "d.txt")
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)

    def test_checkpoint_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        enc = Encoder(4, 3, 2, rng)
        params = KernelParams("affine-cosine", gamma=7.5, beta=-2.25)
        cli.save_checkpoint(tmp_path / "c.txt", enc, params, "supervised")
        enc2, params2, meta = cli.load_checkpoint(tmp_path / "c.txt")
        assert np.array_equal(enc2.flat, enc.flat)
        for k in enc.params:
            assert np.array_equal(enc2.params[k], enc.params[k])
            # The parameters stay views of the one vector on both sides.
            assert np.shares_memory(enc2.params[k], enc2.flat)
            assert np.shares_memory(enc.params[k], enc.flat)
        assert params2.gamma == 7.5 and params2.beta == -2.25
        assert meta["mode"] == "supervised"

    def test_checkpoint_with_projection(self, tmp_path):
        rng = np.random.default_rng(1)
        enc = Encoder(4, 3, 2, rng)
        params = KernelParams("cosine-temp", tau=0.5, proj=rng.normal(size=(2, 2)))
        cli.save_checkpoint(tmp_path / "c.txt", enc, params, "unsupervised")
        _, params2, _ = cli.load_checkpoint(tmp_path / "c.txt")
        assert np.array_equal(params2.proj, params.proj)
        assert params2.tau == 0.5

    def test_checkpoint_rejects_foreign_file(self, tmp_path):
        (tmp_path / "c.txt").write_text("not a checkpoint\n")
        with pytest.raises(ValueError):
            cli.load_checkpoint(tmp_path / "c.txt")

    @pytest.mark.parametrize("case, message", MALFORMED_CHECKPOINTS)
    def test_checkpoint_rejects_malformed_file(self, tmp_path, case, message):
        enc = Encoder(4, 3, 2, np.random.default_rng(0))
        cli.save_checkpoint(tmp_path / "c.txt", enc, KernelParams("sq-euclid"), "supervised")
        malform(tmp_path / "c.txt", case)
        with pytest.raises(ValueError, match=message):
            cli.load_checkpoint(tmp_path / "c.txt")

    def test_checkpoint_blank_line_loads_the_same(self, tmp_path):
        # A blank line before a tensor header used to be rejected.
        enc = Encoder(4, 3, 2, np.random.default_rng(0))
        cli.save_checkpoint(tmp_path / "c.txt", enc, KernelParams("sq-euclid"), "supervised")
        clean, params, meta = cli.load_checkpoint(tmp_path / "c.txt")
        insert_blank_line(tmp_path / "c.txt", "tensor b1 3\n")
        back, params2, meta2 = cli.load_checkpoint(tmp_path / "c.txt")
        assert np.array_equal(back.flat, clean.flat)
        assert (params2.gamma, params2.beta, meta2) == (params.gamma, params.beta, meta)


def insert_blank_line(path, before):
    lines = path.read_text().splitlines(keepends=True)
    lines.insert(lines.index(before), "\n")
    path.write_text("".join(lines))


def write_clean_file(kind, path):
    ds = synth_dataset(SyntheticConfig(n_speakers=3, utterances_per_speaker=3, feature_dim=4))
    if kind == "dataset":
        cli.save_dataset(path, ds)
    elif kind == "trials":
        ev.save_trials(path, ev.build_trials(ds, 6, np.random.default_rng(0)))
    elif kind == "checkpoint":
        rng = np.random.default_rng(1)
        params = KernelParams("cosine-temp", tau=0.25, proj=rng.normal(size=(2, 2)))
        cli.save_checkpoint(path, Encoder(4, 3, 2, rng), params, "semi")
    else:
        path.write_text("train.steps = 7\nkernel.tau = 0.25\naugment.gain_low = 0.5\n"
                        "train.mode = semi\n")


def loaded_values(kind, path):
    if kind == "dataset":
        ds = cli.load_dataset(path)
        return [ds.labels, ds.features]
    if kind == "trials":
        trials = ev.load_trials(path, 9)
        return [trials.pairs, trials.labels]
    if kind == "checkpoint":
        enc, params, meta = cli.load_checkpoint(path)
        return [enc.flat, params.proj, params.tau, params.gamma, params.beta, meta]
    return [config.load_config(path)]


@pytest.mark.parametrize("kind", ["dataset", "trials", "checkpoint", "config"])
def test_comments_and_blank_lines_change_nothing(tmp_path, kind):
    # One rule for every file: a full-line comment, an inline comment and a
    # blank line in the middle load to the same values as the clean file.
    path = tmp_path / "f.txt"
    write_clean_file(kind, path)
    clean = loaded_values(kind, path)
    lines = path.read_text().splitlines(keepends=True)
    mid = len(lines) // 2
    lines[mid] = lines[mid].rstrip("\n") + "  # an inline comment\n"
    lines[mid:mid] = ["# a full-line comment\n", "\n"]
    path.write_text("".join(lines))
    for got, want in zip(loaded_values(kind, path), clean, strict=True):
        assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want


class TestSplitDataset:
    def test_split_partitions_speakers(self):
        ds = synth_dataset(SyntheticConfig(n_speakers=8, utterances_per_speaker=3))
        train_ds, held_ds = cli.split_dataset(ds, 3, seed=0)
        assert held_ds.n_speakers == 3 and train_ds.n_speakers == 5
        assert not set(np.unique(train_ds.labels)) & set(np.unique(held_ds.labels))
        assert len(train_ds.labels) + len(held_ds.labels) == len(ds.labels)

    def test_split_deterministic(self):
        ds = synth_dataset(SyntheticConfig(n_speakers=8))
        a = cli.split_dataset(ds, 3, seed=2)[1]
        b = cli.split_dataset(ds, 3, seed=2)[1]
        assert np.array_equal(a.labels, b.labels)


def write_config(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return p


SMALL_CFG = """
data.n_speakers = 12
data.utterances_per_speaker = 6
data.feature_dim = 8
data.holdout_speakers = 4
data.labeled_speakers = 4
train.steps = 8
train.batch_slots = 8
train.k_prime = 2
train.hidden_dim = 8
train.embedding_dim = 4
eval.n_pairs = 40
"""


class TestCommands:
    def test_print_defaults(self, capsys):
        assert cli.main(["--print-defaults"]) == 0
        assert capsys.readouterr().out == PRINTED_DEFAULTS

    def test_no_command_shows_help(self, capsys):
        assert cli.main([]) == 2

    def test_synth_counts_and_determinism(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert cli.main(["synth", "--config", str(cfg), "--seed", "3",
                             "--out", str(out)]) == 0
        train_ds = cli.load_dataset(out1 / "train.txt")
        held_ds = cli.load_dataset(out1 / "holdout.txt")
        assert len(train_ds.labels) == 8 * 6 and len(held_ds.labels) == 4 * 6
        for name in ("train.txt", "holdout.txt", "trials.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_synth_refuses_single_speaker(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "data.n_speakers = 1\n")
        assert cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "data.speakers = 4\n")
        assert cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("line, message", [
        ("train.kernel = cosine", "unknown kernel 'cosine'"),
        ("train.eval_every = -2", "eval_every must be >= 0"),
        ("train.steps = -3", "steps must be >= 0"),
        ("train.mode = unsupervised\ntrain.batch_slots = 0", "batch_slots must be >= 1"),
        ("train.hidden_dim = 0", "hidden_dim must be >= 1, got 0"),
        ("train.embedding_dim = 0", "embedding_dim must be >= 1, got 0"),
        ("train.lr = nan", "lr must be finite, got nan"),
        ("train.momentum = inf", "momentum must be finite, got inf"),
        *((f"{key} = {value}", f"{key.split('.')[1]} must be finite, got {value}")
          for key in ("kernel.tau", "kernel.gamma", "kernel.beta", "loss.epsilon")
          for value in ("inf", "-inf", "nan")),
        ("kernel.gamma = -3", "gamma must be >= 0.001 for the affine-cosine kernel, got -3.0"),
        *((f"train.mode = semi\naugment.{name} = {value}", f"{name} must be finite, got {value}")
          for name in ("noise_sigma", "gain_low", "gain_high") for value in ("inf", "-inf", "nan")),
        ("train.mode = semi\naugment.noise_sigma = -1", "noise_sigma must be >= 0, got -1.0"),
        ("train.mode = semi\naugment.dropout_rate = 1", "dropout_rate must be in [0, 1), got 1.0"),
        ("train.mode = semi\naugment.gain_low = 1.5",
         "gain_low and gain_high must satisfy 0 < gain_low <= gain_high, got 1.5 and 1.2"),
    ])
    def test_train_rejects_bad_setting(self, tmp_path, capsys, line, message):
        cfg = write_config(tmp_path, SMALL_CFG + line + "\n")
        out = tmp_path / "run"
        base = ["--config", str(cfg), "--out", str(out)]
        assert cli.main(["synth"] + base) == 0
        assert cli.main(["train"] + base) == 2
        assert message in capsys.readouterr().err
        assert not (out / "checkpoint.txt").exists()

    @pytest.mark.parametrize("line, message", [
        ("train.steps = 1.5", "line 2: train.steps: expected int, got '1.5'"),
        ("kernel.tau = fast", "line 2: kernel.tau: expected float, got 'fast'"),
        ("data.holdout_speakers = 100", "cannot hold out 100 speakers: dataset has 64"),
        ("data.holdout_speakers = 64", "cannot hold out 64 speakers: dataset has 64"),
        ("eval.n_pairs = 1", "eval.n_pairs must be >= 2"),
        *((f"data.{name} = {value}", f"{name} must be positive and finite, got {value}")
          for name in ("intra_spread", "inter_spread") for value in ("inf", "nan", "0.0", "-1.0")),
        *((f"data.{name} = {value}", f"{name} must be >= 1, got {value}")
          for name in ("utterances_per_speaker", "feature_dim") for value in ("0", "-1")),
    ])
    def test_synth_error_names_the_setting(self, tmp_path, capsys, line, message):
        cfg = write_config(tmp_path, "# defaults but one\n" + line + "\n")
        out = tmp_path / "o"
        assert cli.main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
        if message.startswith("line "):
            message = f"error: {cfg}: {message}"
        assert message in capsys.readouterr().err
        assert not (out / "train.txt").exists()

    def test_train_eval_pipeline(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_CFG)
        out = tmp_path / "run"
        base = ["--config", str(cfg), "--seed", "2", "--out", str(out)]
        assert cli.main(["synth"] + base) == 0
        assert cli.main(["train"] + base) == 0
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0].startswith("# gclkit-metrics v1")
        assert metrics[1] == "step,mode,loss,mean_ratio,grad_norm,unlabeled_per_batch,eer_on_val"
        assert len(metrics) == 2 + 8
        assert cli.main(["eval"] + base) == 0
        report = (out / "eer.txt").read_text()
        assert "eer=" in report and "mode=supervised" in report

    def test_train_metrics_deterministic_below_header(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CFG)
        out = tmp_path / "run"
        base = ["--config", str(cfg), "--seed", "4", "--out", str(out)]
        cli.main(["synth"] + base)
        cli.main(["train"] + base)
        first = (out / "metrics.csv").read_text().splitlines()[1:]
        ckpt = (out / "checkpoint.txt").read_bytes()
        cli.main(["train"] + base)
        second = (out / "metrics.csv").read_text().splitlines()[1:]
        assert first == second
        assert (out / "checkpoint.txt").read_bytes() == ckpt

    @pytest.mark.parametrize("case, message", MALFORMED_CHECKPOINTS)
    def test_eval_rejects_malformed_checkpoint(self, tmp_path, capsys, case, message):
        cfg = write_config(tmp_path, SMALL_CFG + "train.steps = 0\ntrain.hidden_dim = 3\n")
        out = tmp_path / "run"
        base = ["--config", str(cfg), "--out", str(out)]
        assert cli.main(["synth"] + base) == 0
        assert cli.main(["train"] + base) == 0
        capsys.readouterr()
        malform(out / "checkpoint.txt", case)
        assert cli.main(["eval"] + base) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and re.search(message, err)
        assert not (out / "eer.txt").exists()

    @pytest.mark.parametrize("edit, message", [
        ("no kernel.proj", r"checkpoint\.txt: no tensor kernel\.proj$"),
        ("kernel.proj too narrow",
         r"checkpoint\.txt: tensor kernel\.proj has shape \(4, 3\), the encoder's is \(4, 4\)$"),
    ], ids=["no kernel.proj", "kernel.proj too narrow"])
    def test_eval_rejects_cosine_temp_checkpoint_projection(self, tmp_path, capsys, edit,
                                                            message):
        # Without kernel.proj the error used to come from KernelParams without the
        # file, and a (4, 3) projection for d_out = 4 used to load.
        cfg = write_config(tmp_path, SMALL_CFG + "train.steps = 0\ntrain.kernel = cosine-temp\n")
        out = tmp_path / "run"
        base = ["--config", str(cfg), "--out", str(out)]
        assert cli.main(["synth"] + base) == 0
        assert cli.main(["train"] + base) == 0
        capsys.readouterr()
        path = out / "checkpoint.txt"
        lines = path.read_text().splitlines(keepends=True)
        at = lines.index("tensor kernel.proj 4 4\n")
        if edit == "no kernel.proj":
            del lines[at:at + 5]
        else:  # the last column dropped
            lines[at] = "tensor kernel.proj 4 3\n"
            lines[at + 1:at + 5] = [" ".join(row.split()[:3]) + "\n" for row in lines[at + 1:at + 5]]
        path.write_text("".join(lines))
        assert cli.main(["eval"] + base) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and re.search(message, err.strip())
        assert not (out / "eer.txt").exists()

    def test_eval_reads_checkpoint_with_blank_line(self, tmp_path, capsys):
        # A blank line before a tensor header used to be rejected.
        cfg = write_config(tmp_path, SMALL_CFG + "train.steps = 0\ntrain.hidden_dim = 3\n")
        out = tmp_path / "run"
        base = ["--config", str(cfg), "--out", str(out)]
        assert cli.main(["synth"] + base) == 0
        assert cli.main(["train"] + base) == 0
        assert cli.main(["eval"] + base) == 0
        clean = (out / "eer.txt").read_text()
        insert_blank_line(out / "checkpoint.txt", "tensor b1 3\n")
        assert cli.main(["eval"] + base) == 0
        assert (out / "eer.txt").read_text() == clean

    @pytest.mark.parametrize("command", ["eval", "train"])
    @pytest.mark.parametrize("line", ["1 0 24", "0 -1 5", "7 0 5", "1 0", "1 0 2.5"])
    def test_trial_file_errors_name_the_line(self, tmp_path, capsys, command, line):
        # The held-out set has 4 speakers x 6 utterances. Id 24 used to end
        # in an IndexError traceback, id -1 to score the last utterance and a
        # label of 7 to count as a target.
        cfg = write_config(tmp_path, SMALL_CFG + "train.eval_every = 4\n")
        out = tmp_path / "run"
        base = ["--config", str(cfg), "--out", str(out)]
        assert cli.main(["synth"] + base) == 0
        assert cli.main(["train"] + base) == 0
        trials = out / "trials.txt"
        lines = trials.read_text().splitlines(keepends=True)
        lines[2] = line + "\n"
        trials.write_text("".join(lines))
        capsys.readouterr()
        assert cli.main([command] + base) == 2
        assert capsys.readouterr().err == (
            f"error: {trials}: line 3: expected 'label idA idB', a label of 0 or 1 and ids "
            f"from 0 to 23, got {line!r}\n")

    @pytest.mark.parametrize("command, name", [("train", "train.txt"), ("eval", "holdout.txt")])
    @pytest.mark.parametrize("edit", ["feature not a number", "row too short", "labels only"])
    def test_dataset_errors_name_the_line(self, tmp_path, capsys, command, name, edit):
        # A feature that is not a number used to end in a float error without
        # the file, a short row in numpy's "inhomogeneous shape" error without
        # the file, and a file of labels alone loaded as zero features and trained.
        cfg = write_config(tmp_path, SMALL_CFG)
        out = tmp_path / "run"
        base = ["--config", str(cfg), "--out", str(out)]
        assert cli.main(["synth"] + base) == 0
        assert cli.main(["train"] + base) == 0
        path = out / name
        lines = path.read_text().splitlines(keepends=True)
        values = lines[3].split()
        line, message = 4, ("expected 'LABEL FEATURE...', an integer label and numbers, "
                            "got {!r}")
        if edit == "feature not a number":
            lines[3] = " ".join(values[:2] + ["abc"] + values[3:]) + "\n"
        elif edit == "row too short":
            lines[3] = " ".join(values[:-1]) + "\n"
            message = "expected 8 features, got 7"
        else:
            lines[1:] = [row.split()[0] + "\n" for row in lines[1:]]
            line, message = 2, "expected one or more features, got 0"
        path.write_text("".join(lines))
        capsys.readouterr()
        assert cli.main([command] + base) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: line {line}: {message.format(lines[3].strip())}\n")

    @pytest.mark.parametrize("command, name", [("train", "train.txt"), ("eval", "holdout.txt")])
    def test_dataset_blank_line_loads_the_same(self, tmp_path, command, name):
        # A blank line used to end in an IndexError traceback and exit 1.
        cfg = write_config(tmp_path, SMALL_CFG)
        out = tmp_path / "run"
        base = ["--config", str(cfg), "--out", str(out)]
        assert cli.main(["synth"] + base) == 0
        assert cli.main(["train"] + base) == 0
        path = out / name
        clean = cli.load_dataset(path)
        lines = path.read_text().splitlines(keepends=True)
        insert_blank_line(path, lines[3])
        back = cli.load_dataset(path)
        assert np.array_equal(back.features, clean.features)
        assert np.array_equal(back.labels, clean.labels)
        assert cli.main([command] + base) == 0

    @pytest.mark.parametrize("command, name", [("train", "train.txt"), ("eval", "holdout.txt")])
    def test_dataset_without_rows_names_the_file(self, tmp_path, capsys, command, name):
        # A header alone used to load as features of shape (0,) and end
        # `train` in an IndexError traceback and exit 1.
        cfg = write_config(tmp_path, SMALL_CFG)
        out = tmp_path / "run"
        base = ["--config", str(cfg), "--out", str(out)]
        assert cli.main(["synth"] + base) == 0
        assert cli.main(["train"] + base) == 0
        path = out / name
        path.write_text(path.read_text().splitlines(keepends=True)[0])
        capsys.readouterr()
        assert cli.main([command] + base) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: line 2: expected 'LABEL FEATURE...', an integer label and numbers, "
            f"got the end of the file\n")

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_empty_trial_file_names_the_file(self, tmp_path, capsys, command):
        # An empty trial file used to give "trial set is empty" without the file.
        cfg = write_config(tmp_path, SMALL_CFG + "train.eval_every = 4\n")
        out = tmp_path / "run"
        base = ["--config", str(cfg), "--out", str(out)]
        assert cli.main(["synth"] + base) == 0
        assert cli.main(["train"] + base) == 0
        trials = out / "trials.txt"
        trials.write_text("# no trials\n")
        capsys.readouterr()
        assert cli.main([command] + base) == 2
        assert capsys.readouterr().err == (
            f"error: {trials}: line 2: expected 'label idA idB', a label of 0 or 1 and ids "
            f"from 0 to 23, got the end of the file\n")

    def test_train_steps_zero_checkpoint_equals_init(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CFG + "train.steps = 0\n")
        out = tmp_path / "run"
        base = ["--config", str(cfg), "--seed", "6", "--out", str(out)]
        cli.main(["synth"] + base)
        assert cli.main(["train"] + base) == 0
        enc, params, _ = cli.load_checkpoint(out / "checkpoint.txt")
        init = Encoder(8, 8, 4, cli.substream(6, "init"))
        for k in init.params:
            assert np.array_equal(enc.params[k], init.params[k])
        assert params.gamma == 10.0 and params.beta == -5.0

    def test_eval_every_fills_validation_column(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CFG + "train.eval_every = 4\n")
        out = tmp_path / "run"
        base = ["--config", str(cfg), "--seed", "2", "--out", str(out)]
        cli.main(["synth"] + base)
        assert cli.main(["train"] + base) == 0
        rows = [row.split(",") for row in (out / "metrics.csv").read_text().splitlines()[2:]]
        assert [row[6] == "" for row in rows] == [True, True, True, False] * 2
        assert all(0.0 <= float(row[6]) <= 1.0 for row in rows if row[6])

    def test_semi_mode_reports_unlabeled_column(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CFG + "train.unlabeled_fraction = 0.25\n")
        out = tmp_path / "run"
        base = ["--config", str(cfg), "--seed", "1", "--out", str(out)]
        cli.main(["synth"] + base)
        assert cli.main(["train", "--mode", "semi"] + base) == 0
        rows = (out / "metrics.csv").read_text().splitlines()[2:]
        assert all(row.split(",")[5] == "2" for row in rows)  # 0.25 * 8 slots
        assert all(row.split(",")[1] == "semi" for row in rows)

    def test_eval_reproducible(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_CFG)
        out = tmp_path / "run"
        base = ["--config", str(cfg), "--seed", "9", "--out", str(out)]
        cli.main(["synth"] + base)
        cli.main(["train"] + base)
        cli.main(["eval"] + base)
        first = (out / "eer.txt").read_text()
        cli.main(["eval"] + base)
        assert (out / "eer.txt").read_text() == first

    def test_eval_perfectly_separable_checkpoint(self, tmp_path):
        # wide clusters apart + identity-ish training data: raw cosine on an
        # untrained encoder already separates, so EER must be exactly 0
        cfg = write_config(tmp_path, SMALL_CFG.replace("data.n_speakers = 12",
                                                       "data.n_speakers = 12\n"
                                                       "data.inter_spread = 50.0"))
        out = tmp_path / "run"
        base = ["--config", str(cfg), "--seed", "5", "--out", str(out)]
        cli.main(["synth"] + base)
        cli.main(["train"] + base)
        assert cli.main(["eval"] + base) == 0
        assert "eer=0.0000" in (out / "eer.txt").read_text()

    def test_verify_exit_code(self, capsys):
        assert cli.main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out
