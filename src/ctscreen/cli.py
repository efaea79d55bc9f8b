"""Batch command line: segment, patch, train, eval, predict.

Every command is deterministic given its seed; reruns with the same inputs
produce byte-identical artifacts. Output files are written atomically
(temp file plus rename) so a killed run never leaves half-written packs
or checkpoints behind.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import dataclasses
import functools
import io
import math
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
from .patch_sampler import (PATCH_TABLE, extract_patches, Sample,
                            standardize_volume, trilinear_resample)
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


# the most parameters a model may have: 256 MiB per float32 copy, and
# training holds about six (weights, gradients, two Adam moments, the best
# and the initial weights)
MAX_PARAMETERS = 1 << 26


class ManifestError(Exception):
    pass


class ConfigError(Exception):
    pass


@dataclass
class ManifestRow:
    path: str
    label: str


def load_manifest(path):
    """Headerless CSV rows of path,label; labels known, and no two paths
    with one stem, the source_id that names a scan's outputs."""
    rows, seen = [], {}
    text = _read_text(path, ManifestError)
    for ln, rec in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
        if not rec or (len(rec) == 1 and not rec[0].strip()):
            continue
        if len(rec) != 2:
            raise ManifestError(f"{path} line {ln}: expected path,label")
        scan, label = rec[0].strip(), rec[1].strip()
        if label not in LABELS:
            raise ManifestError(
                f"{path} line {ln}: unknown label '{label}' "
                f"(expected one of {', '.join(LABELS)})")
        stem = _stem(scan)
        if stem in seen:
            raise ManifestError(f"{path} line {ln}: duplicate source_id '{stem}' "
                                f"of '{scan}', first at line {seen[stem]}")
        seen[stem] = ln
        rows.append(ManifestRow(scan, label))
    if not rows:
        raise ManifestError(f"{path}: empty manifest")
    return rows


def class_labels(rows, protocol):
    table = _LABEL_MAPS[protocol]
    return np.array([table[r.label] for r in rows], dtype=np.int64)


# ---------------------------------------------------------------- config

def _check_levels(levels):
    """Raise ValueError unless `levels` are distinct PATCH_TABLE levels."""
    for i, level in enumerate(levels):
        if level not in PATCH_TABLE:
            raise ValueError(f"unknown level '{level}' "
                             f"(expected one of {', '.join(PATCH_TABLE)})")
        if level in levels[:i]:
            raise ValueError(f"level '{level}' is listed twice")


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


def _pack_count_offset(level):
    """Where a pack's header holds its record count, the header's last four bytes."""
    return len(PACK_MAGIC) + struct.calcsize("<HB") + len(level) + struct.calcsize("<HHH")


def write_pack(level, samples):
    """Little-endian container: header, then per-sample id/label/origin/f32.

    The packs of several sample lists of one level and shape join into the
    pack of them all: the first whole, then each later one without its
    header, with the header's record count set to the total.
    """
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
    """Inverse of write_pack, from the file's bytes: (level name, samples).

    Each sample's tensor is a read-only view of `data`, not a copy, so the
    samples keep the file's bytes alive and cost nothing beside them."""
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


def index_records(samples):
    """(source_id, label, level, origin) of each sample: a pack index's rows."""
    return [(smp.source_id, smp.label, smp.level, smp.origin) for smp in samples]


def pack_index_csv(records):
    """CSV of a pack's index_records, numbered in pack order."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["row", "source_id", "label", "level",
                "origin_r", "origin_c", "origin_s"])
    for i, (source_id, label, level, origin) in enumerate(records):
        w.writerow([i, source_id, label, level, *origin])
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


def _atomic_write(path, data, amend=None):
    """Write `data` to `path` whole or not at all: into a temp file beside it,
    renamed over `path` once complete; any error removes the temp file.

    `data` is text, bytes, or an iterable of byte chunks; an iterable that
    yields no chunk writes no file and leaves `path` as it was. `amend`, when
    given, is called after the last chunk and returns (offset, bytes) to write
    over the file there, such as a header count known only at the end.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    chunks = iter((data,) if isinstance(data, (bytes, bytearray, memoryview)) else data)
    first = next(chunks, None)
    if first is None:
        return
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}")
    # mode 0o666 leaves the final mode to the process umask, as open() would;
    # mkstemp would fix it at 0600
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(first)
            del first
            # each chunk is dropped before the next is asked for
            for chunk in chunks:
                fh.write(chunk)
                del chunk
            if amend is not None:
                offset, patch = amend()
                fh.seek(offset)
                fh.write(patch)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _make_out(path):
    """Make the output directory; a path that cannot be one is a ConfigError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make --out {path}: {exc.strerror}") from exc


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
    return tensor.transpose(2, 0, 1)[None, None].astype(np.float32, copy=False)


def _scan_probs(spec, weights, std):
    """Class probabilities for one standardized scan; non-finite ones fail it."""
    probs = nn_core.model_forward(spec, weights, _model_input(std, spec),
                                  mode="infer")[0]
    if not np.isfinite(probs).all():
        raise ValueError("checkpoint produced non-finite probabilities")
    return probs


def _scoring_work(spec, weights, seg, masks):
    """work(index, path) giving a scan's class probabilities: its mask read
    from the `masks` directory or, when that is None, segmented with `seg`."""
    def standardized(path):
        # the HU volume and its mask die when this returns, before the forward
        volume = nifti_io.read_volume(_read_bytes(path), source_id=_stem(path))
        if masks is None:
            mask = segment_lung(volume, seg)
        else:
            mask = _read_mask(os.path.join(masks, mask_name(path)), volume.shape)
        return standardize_volume(volume, mask)

    def work(_, path):
        return _scan_probs(spec, weights, standardized(path))
    return work


_FILE_ERRORS = (OSError, ValueError)


def _per_scan(work, paths, jobs):
    """Yield work(index, path) for every scan, in input order, run on `jobs`
    threads with at most 2 * jobs scans submitted ahead of the consumer.

    A scan whose work raises one of _FILE_ERRORS is named once on stderr, in
    input order, and yields None; the others still run. With one job the
    work runs on the calling thread, as each scan is asked for. Closing the
    generator early cancels the scans not yet started.
    """
    def guarded(index, path):
        try:
            return work(index, path), None
        except _FILE_ERRORS as exc:
            return None, f"error: {path}: {exc}"

    def settle(outcome):
        result, err = outcome
        if err is not None:
            print(err, file=sys.stderr)
        return result

    if jobs == 1:
        for index, path in enumerate(paths):
            yield settle(guarded(index, path))
        return
    pool = ThreadPoolExecutor(max_workers=jobs)
    ahead = collections.deque()
    try:
        for index, path in enumerate(paths):
            ahead.append(pool.submit(guarded, index, path))
            if len(ahead) == 2 * jobs:
                yield settle(ahead.popleft().result())
        while ahead:
            yield settle(ahead.popleft().result())
    finally:
        pool.shutdown(cancel_futures=True)


# -------------------------------------------------------------- commands

def cmd_segment(args):
    cfg = load_config(args.config)
    rows = load_manifest(args.manifest)
    _make_out(args.out)
    _write_effective_config(cfg, args.out)

    def work(_, path):
        volume = nifti_io.read_volume(_read_bytes(path), source_id=_stem(path))
        mask = segment_lung(volume, cfg.seg)
        blob = nifti_io.write_mask(mask, volume, gzipped=True)
        _atomic_write(os.path.join(args.out, mask_name(path)), blob)
        parts = component_count(mask, cfg.seg.connectivity)
        return volume.source_id, mask.count(), parts

    done = [ok for ok in _per_scan(work, [row.path for row in rows], args.jobs)
            if ok is not None]
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["source_id", "lung_voxels", "components"])
    w.writerows(done)
    _atomic_write(os.path.join(args.out, "summary.csv"), buf.getvalue())
    print(f"segmented {len(done)}/{len(rows)} scans -> {args.out}")
    return 1 if len(done) < len(rows) else 0


def cmd_patch(args):
    cfg = load_config(args.config)
    rows = load_manifest(args.manifest)
    try:
        _check_levels([args.level])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    labels = class_labels(rows, cfg.protocol)
    _make_out(args.out)
    _write_effective_config(cfg, args.out)

    def work(index, path):
        volume = nifti_io.read_volume(_read_bytes(path), source_id=_stem(path))
        mask = _read_mask(os.path.join(args.masks, mask_name(path)), volume.shape)
        scan_seed = int(np.random.SeedSequence(
            [cfg.seed, index]).generate_state(1)[0])
        return extract_patches(volume, mask, args.level, scan_seed,
                               label=int(labels[index]))

    # the scans' records join into one pack as they finish, in manifest
    # order, each encoded on its own so no scan's whole pack is built: each
    # later header must match the first but for its count, which is set last
    count_at = _pack_count_offset(args.level)
    records = []
    scans = 0

    def chunks(outcomes):
        nonlocal scans
        for patches in filter(None, outcomes):
            for sample in patches:
                blob = write_pack(args.level, [sample])
                if not records:
                    head = blob[:count_at]
                    yield blob
                elif blob[:count_at] != head:
                    raise ValueError("pack samples must share one shape")
                else:
                    yield memoryview(blob)[count_at + 4:]
                del blob  # before the next record is encoded
                records.extend(index_records([sample]))
            del patches  # before the next scan is awaited
            scans += 1

    with contextlib.closing(_per_scan(work, [row.path for row in rows],
                                      args.jobs)) as outcomes:
        _atomic_write(os.path.join(args.out, f"{args.level}.pack"), chunks(outcomes),
                      amend=lambda: (count_at, struct.pack("<I", len(records))))
    if not scans:
        return 1
    _atomic_write(os.path.join(args.out, f"{args.level}_index.csv"),
                  pack_index_csv(records))
    print(f"packed {len(records)} {args.level} patches "
          f"from {scans} scans -> {args.out}")
    return 1 if scans < len(rows) else 0


def _read_level(cfg, packs_dir, name):
    """(train, val) of level `name`: its pack's records, read-only views of
    the pack's bytes, in a deterministic stratified split. A missing or bad
    pack, one of another level or shape, or too few records to split is a
    ConfigError."""
    k = max(2, int(round(1.0 / cfg.val_fraction)))
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
    want = PATCH_TABLE[name][0]
    if shape != want:
        raise ConfigError(
            f"{path} holds {shape} patches, level {name} needs {want}")
    sample_labels = [smp.label for smp in samples]
    try:
        folds = metrics.kfold_split(sample_labels, k=k, seed=cfg.seed)
    except metrics.TooFewSamples as exc:
        raise ConfigError(f"level {name}: {exc}") from exc
    train_set = [smp for smp, f in zip(samples, folds) if f != 0]
    val_set = [smp for smp, f in zip(samples, folds) if f == 0]
    return train_set, val_set


def _load_level_datasets(cfg, packs_dir):
    """Check one pack per configured level, then ({level: patch shape}, load)
    for progressive_fit: load(level) reads that level's pack again when its
    turn comes. Each check drops the pack it read, so a bad pack is an error
    before any epoch and no more than one level's records are resident."""
    for name in cfg.levels:
        _read_level(cfg, packs_dir, name)
    return ({name: PATCH_TABLE[name][0] for name in cfg.levels},
            functools.partial(_read_level, cfg, packs_dir))


def _check_out(path):
    """Reject an --out whose nearest existing path is not a directory."""
    found = os.path.abspath(path)
    while not os.path.exists(found):
        found = os.path.dirname(found)
    if not os.path.isdir(found):
        raise ConfigError(f"cannot make --out {path}: {found} is not a directory")


def cmd_train(args):
    cfg = load_config(args.config)
    _check_out(args.out)
    shapes, load = _load_level_datasets(cfg, args.packs)
    class_count = len(PROTOCOL_CLASSES[cfg.protocol])

    def log(level, stats):
        print(f"[{level}] epoch {stats.epoch}: "
              f"train_loss {stats.train_loss:.4f} acc {stats.train_acc:.4f} "
              f"val_loss {stats.val_loss:.4f} val_acc {stats.val_acc:.4f} "
              f"lr {stats.lr:.3e}")

    try:
        _, results = progressive_fit(shapes, load, cfg.train, class_count,
                                     channels=cfg.channels, log=log)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except NonFiniteLoss as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    _make_out(args.out)
    _write_effective_config(cfg, args.out)
    for res in results:
        blob = nn_core.save_checkpoint(res.spec, res.best_weights)
        _atomic_write(os.path.join(args.out, f"checkpoint_{res.level}.ctck"), blob)
    _atomic_write(os.path.join(args.out, "checkpoint_final.ctck"), blob)
    _atomic_write(os.path.join(args.out, "history.csv"),
                  history_to_csv({res.level: res.history for res in results}))
    print(f"trained {len(results)} levels -> {args.out}")
    return 0


def cmd_eval(args):
    spec, weights = _load_model(args.checkpoint)
    protocol, names = _checkpoint_classes(spec)
    cfg = dataclasses.replace(load_config(args.config), protocol=protocol)
    rows = load_manifest(args.manifest)
    labels = class_labels(rows, protocol)
    _make_out(args.out)
    _write_effective_config(cfg, args.out)

    work = _scoring_work(spec, weights, cfg.seg, args.masks)
    results = list(_per_scan(work, [row.path for row in rows], args.jobs))
    if any(probs is None for probs in results):
        return 1
    report = metrics.evaluate_probs(np.stack(results), labels)
    _atomic_write(os.path.join(args.out, "report.csv"),
                  metrics.report_csv(report, list(names)))
    if report.roc_points is not None:
        roc = metrics.roc_points_csv(dict(zip(names, report.roc_points)))
        _atomic_write(os.path.join(args.out, "roc.csv"), roc)
    for name, value in (("accuracy", report.weighted_recall),
                        ("weighted_precision", report.weighted_precision),
                        ("weighted_f1", report.weighted_f1),
                        ("macro_auc", report.macro_auc)):
        if value is not None:
            print(f"{name}: {value:.4f}")
    return 0


def cmd_predict(args):
    cfg = load_config(args.config)
    spec, weights = _load_model(args.checkpoint)
    _, names = _checkpoint_classes(spec)
    work = _scoring_work(spec, weights, cfg.seg, None)
    probs, = _per_scan(work, [args.scan], 1)
    if probs is None:
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

    p = subs.add_parser("eval", help="score a checkpoint on every scan of a manifest")
    p.add_argument("--checkpoint", required=True)
    _manifest_flags(p)
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
