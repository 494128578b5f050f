"""Plain-text run configuration: one `key = value` per line, dotted sections.

Each dotted key names one field of a settings dataclass, and that field's
default is the key's default; ``KEYS`` is the only mapping between the two.
Unknown keys are rejected so a typo can't silently fall back to a default.
Values are coerced to the type of the corresponding default.
"""

from dataclasses import dataclass, fields
from pathlib import Path

from .records import Records
from .synth import AugmentationSpec, SyntheticConfig
from .train import TrainConfig


@dataclass(frozen=True)
class SplitConfig:
    """How the CLI divides a synthetic dataset: speakers held out for the
    trial list, speakers that keep their labels in semi mode, and trials."""

    holdout_speakers: int = 16
    labeled_speakers: int = 16
    n_pairs: int = 400

    def __post_init__(self):
        # build_trials makes n_pairs // 2 target pairs; an EER needs one.
        if self.n_pairs < 2:
            raise ValueError(f"eval.n_pairs must be >= 2 (one target and one non-target "
                             f"trial), got {self.n_pairs}")


# Key order is the order of --print-defaults.
KEYS = {
    "data.n_speakers": (SyntheticConfig, "n_speakers"),
    "data.utterances_per_speaker": (SyntheticConfig, "utterances_per_speaker"),
    "data.feature_dim": (SyntheticConfig, "feature_dim"),
    "data.intra_spread": (SyntheticConfig, "intra_spread"),
    "data.inter_spread": (SyntheticConfig, "inter_spread"),
    "data.holdout_speakers": (SplitConfig, "holdout_speakers"),
    "data.labeled_speakers": (SplitConfig, "labeled_speakers"),
    "train.mode": (TrainConfig, "mode"),
    "train.steps": (TrainConfig, "steps"),
    "train.lr": (TrainConfig, "lr"),
    "train.momentum": (TrainConfig, "momentum"),
    "train.batch_slots": (TrainConfig, "batch_slots"),
    "train.k_prime": (TrainConfig, "k_prime"),
    "train.unlabeled_fraction": (TrainConfig, "unlabeled_fraction"),
    "train.affinity": (TrainConfig, "affinity"),
    "train.kernel": (TrainConfig, "kernel"),
    "train.hidden_dim": (TrainConfig, "hidden_dim"),
    "train.embedding_dim": (TrainConfig, "embedding_dim"),
    "train.eval_every": (TrainConfig, "eval_every"),
    "kernel.tau": (TrainConfig, "tau"),
    "kernel.gamma": (TrainConfig, "gamma"),
    "kernel.beta": (TrainConfig, "beta"),
    "loss.epsilon": (TrainConfig, "epsilon"),
    "loss.ratio_transform": (TrainConfig, "ratio_transform"),
    "affinity.relaxed_unlabeled": (TrainConfig, "relaxed_unlabeled"),
    "augment.noise_sigma": (AugmentationSpec, "noise_sigma"),
    "augment.gain_low": (AugmentationSpec, "gain_low"),
    "augment.gain_high": (AugmentationSpec, "gain_high"),
    "augment.dropout_rate": (AugmentationSpec, "dropout_rate"),
    "eval.n_pairs": (SplitConfig, "n_pairs"),
}

DEFAULTS = {key: {f.name: f.default for f in fields(cls)}[name]
            for key, (cls, name) in KEYS.items()}


def build(cls, values, **overrides):
    """A ``cls`` whose keyed fields take their values from a parsed config.

    ``overrides`` set fields directly, e.g. ``seed=`` or ``mode=``.
    """
    kwargs = {name: values[key] for key, (owner, name) in KEYS.items() if owner is cls}
    return cls(**{**kwargs, **overrides})


def _coerce(default, raw):
    """``raw`` as the type of ``default``; ValueError if it does not parse."""
    if isinstance(default, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(raw)
    if isinstance(default, (int, float)):
        return type(default)(raw)
    return raw


def parse_config(text, path="<config>"):
    """Config text as a full key -> value dict (defaults filled in); errors name ``path``."""
    values = dict(DEFAULTS)
    records = Records(path, text.splitlines())
    for number, _, line in records:
        key, eq, raw = (part.strip() for part in line.partition("="))
        if not eq:
            raise records.error(number, "expected 'key = value'", line)
        if key not in DEFAULTS:
            raise records.error(number, "unknown key; expected one of --print-defaults", key)
        default = DEFAULTS[key]
        try:
            values[key] = _coerce(default, raw)
        except ValueError:
            kind = "boolean" if isinstance(default, bool) else type(default).__name__
            raise records.error(number, f"{key}: expected {kind}", raw) from None
    return values


def load_config(path=None):
    return dict(DEFAULTS) if path is None else parse_config(Path(path).read_text(), path)


def format_defaults():
    return "\n".join(f"{k} = {v}" for k, v in DEFAULTS.items())
