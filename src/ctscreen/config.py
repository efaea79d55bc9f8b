"""A run's configuration: one table of keys, with its parser and its dump.

A config file is flat `key = value` lines. `CONFIG_KEYS` says where each
key lives in a `RunConfig`; parsing, dumping and the defaults all read it.
"""

import dataclasses
import math

from . import nn_core
from .augment import AugmentPolicy
from .patch_sampler import PATCH_TABLE
from .rebalance import MODES
from .segmentation import SegmentationParams
from .train import TrainConfig

# binary folds every positive grade into one class; the 4-way protocol
# merges the two-sample critical grade into severe
PROTOCOL_CLASSES = {
    "binary": ("NOR", "NCP"),
    "multiclass": ("NOR", "MiNCP", "MoNCP", "SeNCP"),
}

# the most parameters a model may have: 256 MiB per float32 copy, and
# training holds about six (weights, gradients, two Adam moments, the best
# and the initial weights)
MAX_PARAMETERS = 1 << 26


class ConfigError(ValueError):
    """A config, flag or input file a command cannot run with: exit 2."""


def _check_levels(levels):
    """Raise ConfigError unless `levels` are distinct PATCH_TABLE levels."""
    for i, level in enumerate(levels):
        if level not in PATCH_TABLE:
            raise ConfigError(f"unknown level '{level}' "
                              f"(expected one of {', '.join(PATCH_TABLE)})")
        if level in levels[:i]:
            raise ConfigError(f"level '{level}' is listed twice")


@dataclasses.dataclass
class RunConfig:
    """A run's whole configuration; the field defaults are the config defaults.

    `seed` is the run's one seed: construction copies it into the training
    config, and training gets the policy only while `augment_enabled`.
    """
    protocol: str = "binary"
    seed: int = 0
    levels: tuple = ("P4", "P5", "P6")
    channels: tuple = nn_core.BASE_CHANNELS
    val_fraction: float = 0.2
    seg: SegmentationParams = dataclasses.field(default_factory=SegmentationParams)
    augment_enabled: bool = True
    policy: AugmentPolicy = dataclasses.field(default_factory=AugmentPolicy)
    train: TrainConfig = dataclasses.field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.protocol not in PROTOCOL_CLASSES:
            raise ValueError(f"protocol must be one of {sorted(PROTOCOL_CLASSES)}")
        if self.train.weight_mode not in MODES:
            raise ValueError(f"rebalance.mode must be one of {sorted(MODES)}")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")
        if not 0 < self.val_fraction < 1:
            raise ValueError(f"train.val_fraction must lie in (0,1), "
                             f"got {self.val_fraction}")
        if min(self.channels, default=0) < 1:
            raise ValueError(f"model.channels must be positive, got {self.channels}")
        # checked before any weight is allocated; with the gap bridge the
        # count does not depend on the input shape
        spec = nn_core.base_model((1, 1, 1, 1), len(PROTOCOL_CLASSES[self.protocol]),
                                  self.channels)
        size = sum(math.prod(shape) for shape in nn_core.param_shapes(spec).values())
        if size > MAX_PARAMETERS:
            raise ValueError(f"model.channels {self.channels} make {size} parameters, "
                             f"more than {MAX_PARAMETERS}")
        _check_levels(self.levels)
        self.train = dataclasses.replace(
            self.train, seed=self.seed,
            augment=self.policy if self.augment_enabled else None)


# kind -> (parse text, format value)
_KINDS = {
    "int": (int, str),
    "float": (float, repr),
    "str": (lambda s: s, str),
    "bool": (lambda s: {"true": True, "false": False}[s],
             lambda v: "true" if v else "false"),
    "ints": (lambda s: tuple(int(t) for t in s.split(",")),
             lambda v: ",".join(str(t) for t in v)),
    "floats": (lambda s: tuple(float(t) for t in s.split(",")),
               lambda v: ",".join(repr(float(t)) for t in v)),
    "strs": (lambda s: tuple(t.strip() for t in s.split(",")),
             lambda v: ",".join(v)),
}

# key, kind, RunConfig section (None: RunConfig itself), attribute;
# the order here is the order of a dumped file
CONFIG_KEYS = [
    ("protocol", "str", None, "protocol"),
    ("seed", "int", None, "seed"),
    ("patch.levels", "strs", None, "levels"),
    ("model.channels", "ints", None, "channels"),
    ("seg.hu_low", "float", "seg", "hu_low"),
    ("seg.hu_high", "float", "seg", "hu_high"),
    ("seg.keep_k", "int", "seg", "keep_k"),
    ("seg.erode_radius", "float", "seg", "erode_radius"),
    ("seg.close_radius", "float", "seg", "close_radius"),
    ("seg.connectivity", "int", "seg", "connectivity"),
    ("augment.enabled", "bool", None, "augment_enabled"),
    ("augment.rotation_angles", "floats", "policy", "rotation_angles"),
    ("augment.shift_fraction", "float", "policy", "shift_fraction"),
    ("augment.gammas", "floats", "policy", "gammas"),
    ("augment.noise_sigma", "float", "policy", "noise_sigma"),
    ("augment.elastic_grid", "ints", "policy", "elastic_grid"),
    ("augment.elastic_sigma", "float", "policy", "elastic_sigma"),
    ("rebalance.mode", "str", "train", "weight_mode"),
    ("train.lr0", "float", "train", "lr0"),
    ("train.beta1", "float", "train", "beta1"),
    ("train.beta2", "float", "train", "beta2"),
    ("train.epsilon", "float", "train", "epsilon"),
    ("train.decay_rate", "float", "train", "decay_rate"),
    ("train.max_epochs", "int", "train", "max_epochs"),
    ("train.patience", "int", "train", "patience"),
    ("train.batch_size", "int", "train", "batch_size"),
    ("train.monitor", "str", "train", "monitor"),
    ("train.val_fraction", "float", None, "val_fraction"),
]
_SECTIONS = {"seg": SegmentationParams, "policy": AugmentPolicy,
             "train": TrainConfig}


def config_values(cfg: RunConfig):
    """{key: value} for every config key, read from where the key lives."""
    return {key: getattr(getattr(cfg, section) if section else cfg, attr)
            for key, _, section, attr in CONFIG_KEYS}


def parse_config(text) -> RunConfig:
    """Flat `key = value` lines; '#' comments; unknown keys are errors."""
    kinds = {key: kind for key, kind, _, _ in CONFIG_KEYS}
    values = config_values(RunConfig())
    seen = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value'")
        key, _, val = (t.strip() for t in line.partition("="))
        if key not in kinds:
            raise ConfigError(f"line {ln}: unknown key '{key}'")
        if key in seen:
            raise ConfigError(f"line {ln}: duplicate key '{key}'")
        seen.add(key)
        parse = _KINDS[kinds[key]][0]
        try:
            values[key] = parse(val)
        except (ValueError, KeyError):
            raise ConfigError(f"line {ln}: bad value for {key}: '{val}'") from None
    fields = {section: {} for section in (None, *_SECTIONS)}
    for key, _, section, attr in CONFIG_KEYS:
        fields[section][attr] = values[key]
    try:
        parts = {name: make(**fields[name]) for name, make in _SECTIONS.items()}
        return RunConfig(**fields[None], **parts)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def dump_config(cfg: RunConfig):
    """Canonical text form; parse_config(dump_config(c)) == c."""
    values = config_values(cfg)
    return "".join(f"{key} = {_KINDS[kind][1](values[key])}\n"
                   for key, kind, _, _ in CONFIG_KEYS)
