"""Command-line entry point.

Subcommands: synth (write dataset + trial list), train (checkpoint + metrics
CSV), eval (EER report), verify (self-check suites). Every command is a pure
function of (config, seed); timestamps appear only in `# generated=` header
lines so outputs can be compared byte-for-byte below them.

All randomness derives from the single --seed through the named substreams
of ``train.STREAMS`` (synth, init, data, augment, trials, split, hide), so
each component reproduces independently.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import evaluate as ev
from . import synth, verify
from .config import SplitConfig, build, format_defaults, load_config
from .encoder import Encoder
from .kernels import KINDS, KernelParams
from .records import Records
from .train import TrainConfig, substream, train

CSV_SCHEMA = "gclkit-metrics v1"
CKPT_SCHEMA = "gclkit-checkpoint v1"


def split_dataset(dataset, n_holdout, seed):
    """Deterministic split into (train speakers, held-out speakers for trials)."""
    speakers = np.unique(dataset.labels)
    if not 0 <= n_holdout < len(speakers):
        raise ValueError(f"cannot hold out {n_holdout} speakers: dataset has {len(speakers)}, "
                         "and at least one must stay for training")
    held_ds, train_ds = synth._split_speakers(dataset, speakers, n_holdout,
                                              substream(seed, "split"))
    return train_ds, held_ds


def save_dataset(path, dataset):
    with open(path, "w") as fh:
        fh.write(f"# gclkit-dataset v1 n={len(dataset.labels)} f={dataset.features.shape[1]}\n")
        for y, row in zip(dataset.labels, dataset.features):
            fh.write(str(int(y)) + " " + " ".join(repr(float(v)) for v in row) + "\n")


def load_dataset(path):
    """The dataset of a ``save_dataset`` file; a record that is not an integer
    label and as many numbers as the first record's (at least one), or a file
    of none, is a ValueError naming the line."""
    expected = "expected 'LABEL FEATURE...', an integer label and numbers"
    labels, rows = [], []
    records = Records(path)
    for number, fields, text in records:
        try:
            labels.append(int(fields[0]))
            rows.append([float(v) for v in fields[1:]])
        except ValueError:
            raise records.error(number, expected, text) from None
        if len(rows[-1]) != len(rows[0]) or not rows[0]:
            raise records.error(number, f"expected {len(rows[0]) or 'one or more'} features",
                                len(rows[-1]))
    if not rows:
        raise records.error(records.end, expected, None)
    return synth.LabeledDataset(np.array(rows), np.array(labels))


def save_checkpoint(path, encoder, kernel_params, mode):
    tensors = dict(encoder.params)
    tensors["kernel.gamma"] = np.atleast_1d(np.asarray(kernel_params.gamma, float))
    tensors["kernel.beta"] = np.atleast_1d(np.asarray(kernel_params.beta, float))
    if kernel_params.proj is not None:
        tensors["kernel.proj"] = kernel_params.proj
    with open(path, "w") as fh:
        fh.write(f"# {CKPT_SCHEMA}\n")
        fh.write(f"meta mode={mode} kind={kernel_params.kind} tau={kernel_params.tau!r} "
                 f"f_in={encoder.f_in} hidden={encoder.hidden} d_out={encoder.d_out}\n")
        for name in sorted(tensors):
            t = np.atleast_2d(tensors[name])
            fh.write(f"tensor {name} {' '.join(map(str, tensors[name].shape))}\n")
            for row in t:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")


# What each meta value but the mode must be, and its test.
_META = {
    "kind": ("one of " + ", ".join(KINDS), lambda v: v in KINDS),
    "tau": ("a positive number", lambda v: float(v) > 0),
    **dict.fromkeys(("f_in", "hidden", "d_out"),
                    ("a whole number from 1", lambda v: v.isdigit() and int(v) > 0)),
}


def load_checkpoint(path):
    """(encoder, kernel params, meta) of a checkpoint, written into a new encoder's views; a
    ValueError names a missing meta key or tensor, a tensor of a shape not the encoder's
    (a cosine-temp checkpoint's ``kernel.proj`` is (d_out, d_out)), or the line of a
    record that cannot be read."""
    with open(path) as fh:
        if CKPT_SCHEMA not in fh.readline():
            raise ValueError(f"not a {CKPT_SCHEMA} file: {path}")
        records = Records(path, fh, start=2)
        lines = iter(records)
        number, fields, text = next(lines, None) or (records.end, [], None)
        if fields[:1] != ["meta"] or not all("=" in kv for kv in fields[1:]):
            raise records.error(number, "expected 'meta KEY=VALUE...'", text)
        meta = dict(kv.split("=", 1) for kv in fields[1:])
        missing = [k for k in ("mode", *_META) if k not in meta]
        if missing:
            raise ValueError(f"{path}: meta line has no {', '.join(k + '=' for k in missing)}")
        for key, (want, valid) in _META.items():
            try:
                ok = valid(meta[key])
            except ValueError:
                ok = False
            if not ok:
                raise records.error(number, f"expected {key} to be {want}", f"{key}={meta[key]}")
        tensors = {}
        for number, head, text in lines:
            if (len(head) not in (3, 4) or head[0] != "tensor"
                    or not all(s.isdigit() for s in head[2:])):
                raise records.error(number, "expected 'tensor NAME ROWS [COLS]'", text)
            name, shape = head[1], tuple(int(s) for s in head[2:])
            rows = []
            for row in range(1, 1 + (shape[0] if len(shape) == 2 else 1)):
                number, values, text = next(lines, None) or (records.end, [], None)
                what = f"row {row} of tensor {name}"
                try:
                    rows.append([float(v) for v in values])
                except ValueError:
                    raise records.error(number, f"expected {what} as numbers", text) from None
                if len(rows[-1]) != shape[-1]:
                    raise records.error(number, f"{what} needs {shape[-1]} values", text)
            tensors[name] = np.array(rows).reshape(shape)
    encoder = Encoder(*(int(meta[k]) for k in ("f_in", "hidden", "d_out")),
                      np.random.default_rng(0))
    shapes = {k: v.shape for k, v in encoder.params.items()}
    shapes.update({"kernel.gamma": (1,), "kernel.beta": (1,)})
    if meta["kind"] == "cosine-temp":
        shapes["kernel.proj"] = (encoder.d_out, encoder.d_out)
    for name, shape in shapes.items():
        if name not in tensors:
            raise ValueError(f"{path}: no tensor {name}")
        if tensors[name].shape != shape:
            raise ValueError(f"{path}: tensor {name} has shape {tensors[name].shape}, "
                             f"the encoder's is {shape}")
    encoder.flat[:] = np.concatenate([tensors[k].ravel() for k in encoder.params])
    kernel = KernelParams(kind=meta["kind"], tau=float(meta["tau"]),
                          gamma=float(tensors["kernel.gamma"][0]),
                          beta=float(tensors["kernel.beta"][0]), proj=tensors.get("kernel.proj"))
    return encoder, kernel, meta


def write_metrics(path, metrics):
    with open(path, "w") as fh:
        fh.write(f"# {CSV_SCHEMA} generated={time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
        fh.write("step,mode,loss,mean_ratio,grad_norm,unlabeled_per_batch,eer_on_val\n")
        for r in metrics:
            eer_s = "" if r.eer_on_val is None else repr(r.eer_on_val)
            fh.write(f"{r.step},{r.mode},{r.loss!r},{r.mean_ratio!r},"
                     f"{r.grad_norm!r},{r.unlabeled_per_batch},{eer_s}\n")


def cmd_synth(cfg, seed, out):
    out.mkdir(parents=True, exist_ok=True)
    split = build(SplitConfig, cfg)
    dataset = synth.synth_dataset(build(synth.SyntheticConfig, cfg, seed=seed),
                                  substream(seed, "synth"))
    train_ds, held_ds = split_dataset(dataset, split.holdout_speakers, seed)
    save_dataset(out / "train.txt", train_ds)
    save_dataset(out / "holdout.txt", held_ds)
    trials = ev.build_trials(held_ds, split.n_pairs, substream(seed, "trials"))
    ev.save_trials(out / "trials.txt", trials)
    print(f"wrote {out}/train.txt ({len(train_ds.labels)} rows), "
          f"holdout.txt ({len(held_ds.labels)} rows), trials.txt ({len(trials.labels)} pairs)")
    return 0


def cmd_train(cfg, seed, out, mode=None):
    out.mkdir(parents=True, exist_ok=True)
    mode = mode or cfg["train.mode"]
    train_ds = load_dataset(out / "train.txt")
    tc = build(TrainConfig, cfg, mode=mode)

    labeled_pool, unlabeled_pool = train_ds, None
    if mode == "semi":
        labeled_pool, unlabeled_pool = synth.hide_labels(
            train_ds, build(SplitConfig, cfg).labeled_speakers, substream(seed, "hide")
        )
    elif mode == "unsupervised":
        labeled_pool, unlabeled_pool = None, train_ds.features
    val_dataset = val_trials = None
    if tc.eval_every > 0:
        val_dataset = load_dataset(out / "holdout.txt")
        val_trials = ev.load_trials(out / "trials.txt", len(val_dataset.labels))

    result = train(
        labeled_pool, tc, seed=seed, unlabeled_pool=unlabeled_pool,
        aug_spec=build(synth.AugmentationSpec, cfg),
        val_dataset=val_dataset, val_trials=val_trials,
    )
    save_checkpoint(out / "checkpoint.txt", result.encoder, result.kernel_params, mode)
    write_metrics(out / "metrics.csv", result.metrics)
    last = result.metrics[-1].loss if result.metrics else float("nan")
    print(f"trained mode={mode} steps={tc.steps}; final loss {last:.6f}; "
          f"wrote {out}/checkpoint.txt and metrics.csv")
    return 0


def cmd_eval(cfg, seed, out):
    encoder, _, meta = load_checkpoint(out / "checkpoint.txt")
    held_ds = load_dataset(out / "holdout.txt")
    trials = ev.load_trials(out / "trials.txt", len(held_ds.labels))
    emb = encoder(held_ds.features)
    scores, labels = ev.score_trials(trials, emb)
    res = ev.eer(scores, labels)
    report = (f"mode={meta['mode']} eer={res.eer:.4f} threshold={res.threshold:.4f} "
              f"targets={res.n_target} nontargets={res.n_nontarget}")
    (out / "eer.txt").write_text(report + "\n")
    print(report)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="gclkit")
    parser.add_argument("--print-defaults", action="store_true",
                        help="print all config keys with defaults and exit")
    sub = parser.add_subparsers(dest="command")
    for name in ("synth", "train", "eval", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--mode", choices=("supervised", "semi", "unsupervised"), default=None)
        p.add_argument("--out", type=Path, default=Path("runs/default"))
    args = parser.parse_args(argv)

    if args.print_defaults:
        print(format_defaults())
        return 0
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "verify":
        return 0 if verify.run_all() else 1
    try:
        cfg = load_config(args.config)
        if args.command == "synth":
            return cmd_synth(cfg, args.seed, args.out)
        if args.command == "train":
            return cmd_train(cfg, args.seed, args.out, mode=args.mode)
        return cmd_eval(cfg, args.seed, args.out)
    except (ValueError, FloatingPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
