"""Batch command line: segment, patch, train, eval, predict.

Every command is deterministic given its seed; reruns with the same inputs
produce byte-identical artifacts. Output files are written atomically
(temp file plus rename) so a killed run never leaves half-written packs
or checkpoints behind.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import os
import secrets
import struct
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import metrics, nifti_io, nn_core
from .augment import AugmentPolicy
from .nifti_io import Volume
from .patch_sampler import (PATCH_TABLE, PatchSpec, extract_patches,
                            level_spec, Sample, standardize_volume,
                            trilinear_resample)
from .rebalance import MODES
from .segmentation import (Mask, SegmentationParams, component_count,
                           segment_lung)
from .train import NonFiniteLoss, TrainConfig, history_to_csv, progressive_fit

LABELS = ("NOR", "MiNCP", "MoNCP", "SeNCP", "CrNCP")

# binary folds every positive grade into one class; the 4-way protocol
# merges the two-sample critical grade into severe
PROTOCOL_CLASSES = {
    "binary": ("NOR", "NCP"),
    "multiclass": ("NOR", "MiNCP", "MoNCP", "SeNCP"),
}
_LABEL_MAPS = {
    "binary": {l: (0 if l == "NOR" else 1) for l in LABELS},
    "multiclass": {"NOR": 0, "MiNCP": 1, "MoNCP": 2, "SeNCP": 3, "CrNCP": 3},
}


class ManifestError(Exception):
    pass


class ConfigError(Exception):
    pass


@dataclass
class ManifestRow:
    path: str
    label: str
    fold: int = None


def load_manifest(path):
    """Headerless CSV rows of path,label[,fold]; paths unique, labels known."""
    rows, seen = [], set()
    text = _read_text(path, ManifestError)
    for ln, rec in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
        if not rec or (len(rec) == 1 and not rec[0].strip()):
            continue
        if len(rec) not in (2, 3):
            raise ManifestError(f"{path} line {ln}: expected path,label[,fold]")
        scan, label = rec[0].strip(), rec[1].strip()
        if label not in LABELS:
            raise ManifestError(
                f"{path} line {ln}: unknown label '{label}' "
                f"(expected one of {', '.join(LABELS)})")
        if scan in seen:
            raise ManifestError(f"{path} line {ln}: duplicate path '{scan}'")
        seen.add(scan)
        fold = None
        if len(rec) == 3 and rec[2].strip():
            try:
                fold = int(rec[2])
            except ValueError:
                raise ManifestError(
                    f"{path} line {ln}: fold must be an integer") from None
        rows.append(ManifestRow(scan, label, fold))
    if not rows:
        raise ManifestError(f"{path}: empty manifest")
    return rows


def class_labels(rows, protocol):
    table = _LABEL_MAPS[protocol]
    return np.array([table[r.label] for r in rows], dtype=np.int64)


# ---------------------------------------------------------------- config

@dataclass
class RunConfig:
    """A run's whole configuration; the field defaults are the config defaults.

    `seed` is the run's one seed: construction copies it into the policy and
    the training config, and training gets the policy only while
    `augment_enabled`.
    """
    protocol: str = "binary"
    seed: int = 0
    levels: tuple = ("P4", "P5", "P6")
    channels: tuple = nn_core.BASE_CHANNELS
    val_fraction: float = 0.2
    seg: SegmentationParams = field(default_factory=SegmentationParams)
    augment_enabled: bool = True
    policy: AugmentPolicy = field(default_factory=AugmentPolicy)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.protocol not in PROTOCOL_CLASSES:
            raise ValueError(f"protocol must be one of {sorted(PROTOCOL_CLASSES)}")
        if self.train.weight_mode not in MODES:
            raise ValueError(f"rebalance.mode must be one of {sorted(MODES)}")
        if not 0 < self.val_fraction < 1:
            raise ValueError(f"train.val_fraction must lie in (0,1), "
                             f"got {self.val_fraction}")
        if min(self.channels, default=0) < 1:
            raise ValueError(f"model.channels must be positive, got {self.channels}")
        self.policy = dataclasses.replace(self.policy, seed=self.seed)
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


def load_config(path: str | None = None) -> RunConfig:
    """The config file at `path`, or the defaults when there is none."""
    if path is None:
        return RunConfig()
    return parse_config(_read_text(path, ConfigError))


# ------------------------------------------------------------ patch packs

PACK_MAGIC = b"CTPK"
PACK_VERSION = 1


def write_pack(level, samples):
    """Little-endian container: header, then per-sample id/label/origin/f32."""
    if not samples:
        raise ValueError("refusing to write an empty pack")
    shape = samples[0].tensor.shape
    if any(s.tensor.shape != shape for s in samples):
        raise ValueError("pack samples must share one shape")
    r, c, s = shape
    parts = [PACK_MAGIC, struct.pack("<H", PACK_VERSION),
             struct.pack("<B", len(level)), level.encode("ascii"),
             struct.pack("<HHHI", r, c, s, len(samples))]
    for smp in samples:
        sid = smp.source_id.encode("utf-8")
        parts.append(struct.pack("<H", len(sid)))
        parts.append(sid)
        parts.append(struct.pack("<BHHH", int(smp.label), *smp.origin))
        # join copies straight from the array's buffer, with no bytes copy per record
        parts.append(memoryview(np.ascontiguousarray(smp.tensor, dtype="<f4")).cast("B"))
    return b"".join(parts)


def read_pack(data):
    """Inverse of write_pack, from the file's bytes: (level name, samples)."""
    cur = nn_core.ByteCursor(data, "patch pack")
    if cur.take(4) != PACK_MAGIC:
        raise ValueError("not a patch pack")
    version, = cur.unpack("H")
    if version != PACK_VERSION:
        raise ValueError(f"unsupported pack version {version}")
    level = str(cur.take(cur.unpack("B")[0]), "ascii")
    r, c, s, count = cur.unpack("HHHI")
    if count == 0 or 0 in (r, c, s):
        raise ValueError("pack holds no patch data")
    samples = []
    for _ in range(count):
        sid = cur.text("utf-8")
        label, *origin = cur.unpack("BHHH")
        tensor = cur.array("<f4", (r, c, s))
        samples.append(Sample(tensor, label, sid, level, tuple(origin)))
    cur.end()
    return level, samples


def pack_index_csv(samples):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["row", "source_id", "label", "level",
                "origin_r", "origin_c", "origin_s"])
    for i, smp in enumerate(samples):
        w.writerow([i, smp.source_id, smp.label, smp.level, *smp.origin])
    return buf.getvalue()


# --------------------------------------------------------------- helpers

def _stem(path):
    base = os.path.basename(path)
    for suffix in (".nii.gz", ".nii"):
        if base.endswith(suffix):
            return base[:-len(suffix)]
    return os.path.splitext(base)[0]


def mask_name(scan_path):
    return _stem(scan_path) + "_mask.nii.gz"


def _read_bytes(path):
    """The whole file at `path`; every file a command reads comes through here."""
    with open(path, "rb") as fh:
        return fh.read()


def _read_text(path, error):
    """The file's UTF-8 text; a read or decode failure raises `error`."""
    try:
        return _read_bytes(path).decode("utf-8")
    except OSError as exc:
        raise error(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from exc


def _atomic_write(path, data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}")
    # mode 0o666 leaves the final mode to the process umask, as open() would;
    # mkstemp would fix it at 0600
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_effective_config(cfg, out_dir):
    _atomic_write(os.path.join(out_dir, "effective.cfg"), dump_config(cfg))


def _read_mask(path, want_shape):
    if not os.path.exists(path):
        raise ValueError(f"no mask at {path}")
    _, raw = nifti_io.read_raw(_read_bytes(path))
    if raw.shape != want_shape:
        raise ValueError(f"mask shape {raw.shape} != scan shape {want_shape}")
    return Mask(raw > 0)


def _load_model(path):
    try:
        return nn_core.load_checkpoint(_read_bytes(path))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad checkpoint {path}: {exc}") from exc


def _checkpoint_classes(spec):
    """(protocol, class names) of the one protocol with the checkpoint's
    class count: binary has 2 classes, multiclass 4."""
    for protocol, names in PROTOCOL_CLASSES.items():
        if len(names) == spec.class_count:
            return protocol, names
    raise ConfigError(f"checkpoint has {spec.class_count} classes; "
                      f"no protocol has that many")


def _model_input(std: Volume, spec: nn_core.ModelSpec):
    """Standardized volume resampled to the checkpoint grid, batch of one."""
    _, d, h, w = spec.input_shape
    tensor = trilinear_resample(std.voxels, (h, w, d))
    return tensor.transpose(2, 0, 1)[None, None].astype(np.float32)


def _scan_probs(spec, weights, volume, mask):
    """Class probabilities for one scan; non-finite ones fail the scan."""
    std = standardize_volume(volume, mask)
    probs = nn_core.model_forward(spec, weights, _model_input(std, spec),
                                  mode="infer")[0]
    if not np.isfinite(probs).all():
        raise ValueError("checkpoint produced non-finite probabilities")
    return probs


_FILE_ERRORS = (OSError, ValueError)


def _per_scan(work, paths, jobs):
    """Run work(index, path) for every scan, on `jobs` threads.

    A scan whose work raises one of _FILE_ERRORS is named on stderr and
    gives None; the others still run. Returns (results, failure count);
    results follow the input order, whatever finishes first.
    """
    def guarded(item):
        index, path = item
        try:
            return work(index, path), None
        except _FILE_ERRORS as exc:
            return None, f"error: {path}: {exc}"

    items = list(enumerate(paths))
    if jobs == 1:
        outcomes = [guarded(item) for item in items]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(guarded, items))
    failures = [err for _, err in outcomes if err is not None]
    for err in failures:
        print(err, file=sys.stderr)
    return [result for result, _ in outcomes], len(failures)


# -------------------------------------------------------------- commands

def cmd_segment(args):
    cfg = load_config(args.config)
    rows = load_manifest(args.manifest)
    os.makedirs(args.out, exist_ok=True)
    _write_effective_config(cfg, args.out)

    def work(_, path):
        volume = nifti_io.read_volume(_read_bytes(path), source_id=_stem(path))
        mask = segment_lung(volume, cfg.seg)
        blob = nifti_io.write_mask(mask, volume, gzipped=True)
        _atomic_write(os.path.join(args.out, mask_name(path)), blob)
        parts = component_count(mask, cfg.seg.connectivity)
        return volume.source_id, mask.count(), parts

    results, failed = _per_scan(work, [row.path for row in rows], args.jobs)
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["source_id", "lung_voxels", "components"])
    w.writerows(ok for ok in results if ok is not None)
    _atomic_write(os.path.join(args.out, "summary.csv"), buf.getvalue())
    print(f"segmented {len(rows) - failed}/{len(rows)} scans -> {args.out}")
    return 1 if failed else 0


def cmd_patch(args):
    cfg = load_config(args.config)
    rows = load_manifest(args.manifest)
    if args.level not in PATCH_TABLE:
        raise ConfigError(
            f"unknown level '{args.level}' (expected one of {', '.join(PATCH_TABLE)})")
    spec = level_spec(args.level)
    labels = class_labels(rows, cfg.protocol)
    os.makedirs(args.out, exist_ok=True)
    _write_effective_config(cfg, args.out)

    def work(index, path):
        volume = nifti_io.read_volume(_read_bytes(path), source_id=_stem(path))
        mask = _read_mask(os.path.join(args.masks, mask_name(path)), volume.shape)
        scan_seed = int(np.random.SeedSequence(
            [cfg.seed, index]).generate_state(1)[0])
        return extract_patches(volume, mask, spec, scan_seed, label=int(labels[index]))

    results, failed = _per_scan(work, [row.path for row in rows], args.jobs)
    if failed == len(rows):
        return 1
    samples = [smp for patches in results if patches is not None
               for smp in patches]
    _atomic_write(os.path.join(args.out, f"{args.level}.pack"),
                  write_pack(args.level, samples))
    _atomic_write(os.path.join(args.out, f"{args.level}_index.csv"),
                  pack_index_csv(samples))
    print(f"packed {len(samples)} {args.level} patches "
          f"from {len(rows) - failed} scans -> {args.out}")
    return 1 if failed else 0


def _load_level_datasets(cfg, packs_dir):
    """Read one pack per configured level; deterministic stratified split."""
    k = max(2, int(round(1.0 / cfg.val_fraction)))
    specs, datasets = [], {}
    for name in cfg.levels:
        path = os.path.join(packs_dir, f"{name}.pack")
        if not os.path.exists(path):
            raise ConfigError(f"missing pack for level {name}: {path}")
        try:
            level, samples = read_pack(_read_bytes(path))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"bad pack {path}: {exc}") from exc
        if level != name:
            raise ConfigError(f"{path} holds level {level}, expected {name}")
        shape = samples[0].tensor.shape
        want, count = PATCH_TABLE.get(name, (shape, 1))
        if shape != want:
            raise ConfigError(
                f"{path} holds {shape} patches, level {name} needs {want}")
        specs.append(PatchSpec(name, shape, count))
        sample_labels = [smp.label for smp in samples]
        try:
            folds = metrics.kfold_split(sample_labels, k=k, seed=cfg.seed)
        except metrics.TooFewSamples as exc:
            raise ConfigError(f"level {name}: {exc}") from exc
        train_set = [smp for smp, f in zip(samples, folds) if f != 0]
        val_set = [smp for smp, f in zip(samples, folds) if f == 0]
        datasets[name] = (train_set, val_set)
    return specs, datasets


def cmd_train(args):
    cfg = load_config(args.config)
    specs, datasets = _load_level_datasets(cfg, args.packs)
    class_count = len(PROTOCOL_CLASSES[cfg.protocol])

    def log(level, stats):
        print(f"[{level}] epoch {stats.epoch}: "
              f"train_loss {stats.train_loss:.4f} acc {stats.train_acc:.4f} "
              f"val_loss {stats.val_loss:.4f} val_acc {stats.val_acc:.4f} "
              f"lr {stats.lr:.3e}")

    try:
        _, results = progressive_fit(specs, datasets, cfg.train, class_count,
                                     channels=cfg.channels, log=log)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except NonFiniteLoss as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    os.makedirs(args.out, exist_ok=True)
    _write_effective_config(cfg, args.out)
    for res in results:
        blob = nn_core.save_checkpoint(res.spec, res.best_weights)
        _atomic_write(os.path.join(args.out, f"checkpoint_{res.level}.ctck"), blob)
    _atomic_write(os.path.join(args.out, "checkpoint_final.ctck"), blob)
    _atomic_write(os.path.join(args.out, "history.csv"),
                  history_to_csv({res.level: res.history for res in results}))
    print(f"trained {len(results)} levels -> {args.out}")
    return 0


def _fold_assignment(rows, labels, k, seed):
    """Fold id per scan: the manifest's fold column, else a stratified k-fold.

    Every one of the k folds must hold at least one scan.
    """
    if k < 2:
        raise ConfigError(f"--folds must be at least 2, got {k}")
    overrides = [r.fold for r in rows]
    given = [f for f in overrides if f is not None]
    if given and len(given) != len(rows):
        raise ManifestError("either every row sets a fold or none do")
    if not given:
        try:
            return metrics.kfold_split(labels, k=k, seed=seed)
        except metrics.TooFewSamples as exc:
            raise ManifestError(f"--folds {k}: {exc}") from exc
    folds = np.array(overrides, dtype=np.int64)
    if folds.min() < 0 or folds.max() >= k:
        raise ManifestError(f"fold overrides outside [0,{k})")
    empty = np.flatnonzero(np.bincount(folds, minlength=k) == 0)
    if empty.size:
        raise ManifestError(f"fold overrides leave fold {empty[0]} with no scans")
    return folds


def cmd_eval(args):
    spec, weights = _load_model(args.checkpoint)
    protocol, names = _checkpoint_classes(spec)
    cfg = dataclasses.replace(load_config(args.config), protocol=protocol)
    rows = load_manifest(args.manifest)
    labels = class_labels(rows, protocol)
    folds = _fold_assignment(rows, labels, args.folds, cfg.seed)
    os.makedirs(args.out, exist_ok=True)
    _write_effective_config(cfg, args.out)

    def work(_, path):
        volume = nifti_io.read_volume(_read_bytes(path), source_id=_stem(path))
        if args.masks is not None:
            mask = _read_mask(os.path.join(args.masks, mask_name(path)),
                              volume.shape)
        else:
            mask = segment_lung(volume, cfg.seg)
        return _scan_probs(spec, weights, volume, mask)

    results, failed = _per_scan(work, [row.path for row in rows], args.jobs)
    if failed:
        return 1
    probs = np.stack(results)

    summaries = []
    for f in range(args.folds):
        pick = folds == f
        report = metrics.evaluate_probs(probs[pick], labels[pick])
        _atomic_write(os.path.join(args.out, f"fold{f}_report.csv"),
                      metrics.report_csv(report, list(names)))
        if report.roc_points is not None:
            roc = metrics.roc_points_csv(dict(zip(names, report.roc_points)))
            _atomic_write(os.path.join(args.out, f"fold{f}_roc.csv"), roc)
        summaries.append(report)

    rates = {
        "accuracy": [r.weighted_recall for r in summaries],
        "weighted_precision": [r.weighted_precision for r in summaries],
        "weighted_f1": [r.weighted_f1 for r in summaries],
    }
    if all(r.macro_auc is not None for r in summaries):
        rates["macro_auc"] = [r.macro_auc for r in summaries]
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["metric", "mean", "std"])
    for name, vals in rates.items():
        w.writerow([name, repr(float(np.mean(vals))), repr(float(np.std(vals)))])
        print(f"{name}: {np.mean(vals):.4f} +/- {np.std(vals):.4f}")
    _atomic_write(os.path.join(args.out, "aggregate.csv"), buf.getvalue())
    return 0


def cmd_predict(args):
    cfg = load_config(args.config)
    spec, weights = _load_model(args.checkpoint)
    _, names = _checkpoint_classes(spec)

    def work(_, path):
        volume = nifti_io.read_volume(_read_bytes(path), source_id=_stem(path))
        return _scan_probs(spec, weights, volume, segment_lung(volume, cfg.seg))

    (probs,), failed = _per_scan(work, [args.scan], 1)
    if failed:
        return 1
    for name, p in zip(names, probs):
        print(f"{name} {p:.6f}")
    print(f"label: {names[int(np.argmax(probs))]}")
    return 0


# ------------------------------------------------------------------ main

def _common_flags(sub, out=True):
    sub.add_argument("--config", default=None, help="run configuration file")
    if out:
        sub.add_argument("--out", required=True, help="output directory")


def _positive_int(text):
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at least 1, got '{text}'")
    return int(text)


def _manifest_flags(sub):
    """Flags of the commands that work through a manifest's scans."""
    sub.add_argument("--manifest", required=True)
    sub.add_argument("--jobs", type=_positive_int, default=1,
                     help="worker threads over the scans; outputs never depend on it")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ctscreen",
        description="Chest CT screening pipeline: lung segmentation, patch "
                    "extraction, progressive 3D-CNN training and evaluation.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("segment", help="write lung masks for every scan")
    _manifest_flags(p)
    _common_flags(p)
    p.set_defaults(fn=cmd_segment)

    p = subs.add_parser("patch", help="cut a patch pack at one pyramid level")
    _manifest_flags(p)
    p.add_argument("--masks", required=True, help="directory of mask files")
    p.add_argument("--level", required=True,
                   help=f"one of {', '.join(PATCH_TABLE)}")
    _common_flags(p)
    p.set_defaults(fn=cmd_patch)

    p = subs.add_parser("train", help="progressive training over patch packs")
    p.add_argument("--packs", required=True,
                   help="directory holding <level>.pack files")
    _common_flags(p)
    p.set_defaults(fn=cmd_train)

    p = subs.add_parser("eval", help="cross-validated evaluation of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    _manifest_flags(p)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--masks", default=None,
                   help="reuse segment output instead of re-segmenting")
    _common_flags(p)
    p.set_defaults(fn=cmd_eval)

    p = subs.add_parser("predict", help="classify one scan")
    p.add_argument("scan")
    p.add_argument("--checkpoint", required=True)
    _common_flags(p, out=False)
    p.set_defaults(fn=cmd_predict)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ManifestError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
