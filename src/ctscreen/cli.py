"""Batch command line: segment, patch, train, eval, predict.

Every command is deterministic given its seed; reruns with the same inputs
produce byte-identical artifacts. Output files are written atomically
(temp file plus rename) so a killed run never leaves half-written packs
or checkpoints behind.
"""

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
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import metrics, nifti_io, nn_core
from .config import (PROTOCOL_CLASSES, ConfigError, RunConfig, _check_levels,
                     dump_config, parse_config)
# bench/spans.py traces read_pack and write_pack under these names in cli
from .packs import (count_amend, index_records, pack_chunks, pack_index_csv,
                    read_pack, write_pack)
from .patch_sampler import (PATCH_TABLE, STANDARD_SHAPE, extract_patches,
                            standardize_volume, trilinear_resample)
from .segmentation import component_count, segment_lung
from .train import NonFiniteLoss, history_to_csv, progressive_fit

LABELS = ("NOR", "MiNCP", "MoNCP", "SeNCP", "CrNCP")


ManifestRow = collections.namedtuple("ManifestRow", "path label")


def load_manifest(path):
    """Headerless CSV rows of path,label; labels known, and no two paths
    with one stem, the source_id that names a scan's outputs. A manifest
    that breaks these rules, or cannot be read, is a ConfigError."""
    rows, seen = [], {}
    text = _read_text(path)
    for ln, rec in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
        if not rec or (len(rec) == 1 and not rec[0].strip()):
            continue
        if len(rec) != 2:
            raise ConfigError(f"{path} line {ln}: expected path,label")
        scan, label = rec[0].strip(), rec[1].strip()
        if label not in LABELS:
            raise ConfigError(
                f"{path} line {ln}: unknown label '{label}' "
                f"(expected one of {', '.join(LABELS)})")
        stem = _stem(scan)
        if stem in seen:
            raise ConfigError(f"{path} line {ln}: duplicate source_id '{stem}' "
                              f"of '{scan}', first at line {seen[stem]}")
        seen[stem] = ln
        rows.append(ManifestRow(scan, label))
    if not rows:
        raise ConfigError(f"{path}: empty manifest")
    return rows


def class_labels(rows, protocol):
    """Each row's class: its label's place among the protocol's classes, or
    the last class for a grade the protocol folds into it."""
    names = PROTOCOL_CLASSES[protocol]
    return np.array([names.index(r.label) if r.label in names else len(names) - 1
                     for r in rows], dtype=np.int64)


def load_config(path: str | None = None) -> RunConfig:
    """The config file at `path`; no file is an empty one, all defaults."""
    return parse_config("" if path is None else _read_text(path))


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


def _read_text(path):
    """The file's UTF-8 text; a read or decode failure is a ConfigError."""
    try:
        return _read_bytes(path).decode("utf-8")
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc


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


def _make_out(path, cfg):
    """Make the output directory and write `cfg` there as effective.cfg; a
    path that cannot be a directory is a ConfigError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make --out {path}: {exc.strerror}") from exc
    _atomic_write(os.path.join(path, "effective.cfg"), dump_config(cfg))


def _manifest_run(args, **override):
    """(config, manifest rows) of a command over a manifest's scans, once its
    --out holds the effective config: the config file's, with `override`."""
    cfg = dataclasses.replace(load_config(args.config), **override)
    rows = load_manifest(args.manifest)
    _make_out(args.out, cfg)
    return cfg, rows


def _read_mask(path, want_shape):
    if not os.path.exists(path):
        raise ValueError(f"no mask at {path}")
    _, raw = nifti_io.read_raw(_read_bytes(path))
    if raw.shape != want_shape:
        raise ValueError(f"mask shape {raw.shape} != scan shape {want_shape}")
    return raw > 0


# the most values one layer of a checkpoint may output per scan: 1 GiB of
# float32. base_model at the standard grid with the default channels, the
# pyramid's largest model, outputs 151M (604 MB) from its first conv
MAX_ACTIVATION = 1 << 28


def _load_model(path):
    """(spec, weights, protocol, class names) of the checkpoint at `path`; its
    protocol is the one with its class count: binary has 2, multiclass 4.
    Its input is one channel no larger than the standard grid on any axis,
    the grid _model_input resamples, and no layer outputs more than
    MAX_ACTIVATION values."""
    try:
        spec, weights = nn_core.load_checkpoint(_read_bytes(path))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad checkpoint {path}: {exc}") from exc
    rows, cols, slices = STANDARD_SHAPE
    largest = (1, slices, rows, cols)
    if any(n > most for n, most in zip(spec.input_shape, largest)):
        raise ConfigError(f"bad checkpoint {path}: input {spec.input_shape} "
                          f"exceeds {largest}")
    values = max(math.prod(shape) for shape in nn_core.model_shapes(spec))
    if values > MAX_ACTIVATION:
        raise ConfigError(f"bad checkpoint {path}: a layer outputs {values} values, "
                          f"more than {MAX_ACTIVATION}")
    for protocol, names in PROTOCOL_CLASSES.items():
        if len(names) == spec.class_count:
            return spec, weights, protocol, names
    raise ConfigError(f"checkpoint has {spec.class_count} classes; "
                      f"no protocol has that many")


def _model_input(std, spec: nn_core.ModelSpec):
    """Standardized grid resampled to the checkpoint grid, batch of one."""
    _, d, h, w = spec.input_shape
    tensor = trilinear_resample(std, (h, w, d))
    return tensor.transpose(2, 0, 1)[None, None].astype(np.float32, copy=False)


def _per_scan(work, paths, jobs):
    """Yield work(index, path) for every scan, in input order, run on `jobs`
    threads with at most 2 * jobs scans submitted ahead of the consumer.

    A scan whose work raises OSError or ValueError is named once on stderr,
    in input order, and yields None; the others still run. With one job the
    work runs on the calling thread, as each scan is asked for. Closing the
    generator early cancels the scans not yet started.
    """
    def guarded(index, path):
        try:
            return work(index, path), None
        except (OSError, ValueError) as exc:
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


def score_scans(spec, weights, seg, paths, masks, jobs):
    """Each scan's class probabilities, in input order, or None for a scan
    that failed (named on stderr), run on `jobs` threads: its mask is read
    from the `masks` directory or, when that is None, segmented with `seg`."""
    def work(_, path):
        _, hu = nifti_io.read_volume(_read_bytes(path))
        if masks is None:
            mask = segment_lung(hu, seg)
        else:
            mask = _read_mask(os.path.join(masks, mask_name(path)), hu.shape)
        std = standardize_volume(hu, mask)
        del hu, mask  # before the forward
        probs = nn_core.model_forward(spec, weights, _model_input(std, spec))[0]
        if not np.isfinite(probs).all():
            raise ValueError("checkpoint produced non-finite probabilities")
        return probs
    return list(_per_scan(work, paths, jobs))


def train_ladder(cfg, shapes, load):
    """Train the ladder `shapes` as `cfg` says, load(level) giving each level's
    (train, val), and print one line per epoch: progressive_fit's LevelResults.
    A ladder the config cannot train is a ConfigError."""
    def log(level, stats):
        print(f"[{level}] epoch {stats.epoch}: "
              f"train_loss {stats.train_loss:.4f} acc {stats.train_acc:.4f} "
              f"val_loss {stats.val_loss:.4f} val_acc {stats.val_acc:.4f} "
              f"lr {stats.lr:.3e}")

    try:
        return progressive_fit(shapes, load, cfg.train, len(PROTOCOL_CLASSES[cfg.protocol]),
                               channels=cfg.channels, log=log)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# -------------------------------------------------------------- commands

def cmd_segment(args):
    cfg, rows = _manifest_run(args)

    def work(_, path):
        header, hu = nifti_io.read_volume(_read_bytes(path))
        mask = segment_lung(hu, cfg.seg)
        blob = nifti_io.write_mask(mask, header.spacing, gzipped=True)
        _atomic_write(os.path.join(args.out, mask_name(path)), blob)
        parts = component_count(mask, cfg.seg.connectivity)
        return _stem(path), int(np.count_nonzero(mask)), parts

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
    _check_levels([args.level])
    cfg, rows = _manifest_run(args)
    labels = class_labels(rows, cfg.protocol)

    def work(index, path):
        _, hu = nifti_io.read_volume(_read_bytes(path))
        mask = _read_mask(os.path.join(args.masks, mask_name(path)), hu.shape)
        scan_seed = int(np.random.SeedSequence(
            [cfg.seed, index]).generate_state(1)[0])
        return extract_patches(hu, mask, args.level, scan_seed, _stem(path),
                               label=int(labels[index]))

    # the scans' records join into one pack as they finish, in manifest order
    records = []
    scans = 0

    def samples(outcomes):
        nonlocal scans
        for patches in filter(None, outcomes):
            records.extend(index_records(patches))
            yield from patches
            del patches  # before the next scan is awaited
            scans += 1

    with contextlib.closing(_per_scan(work, [row.path for row in rows],
                                      args.jobs)) as outcomes:
        _atomic_write(os.path.join(args.out, f"{args.level}.pack"),
                      pack_chunks(args.level, samples(outcomes)),
                      amend=lambda: count_amend(args.level, len(records)))
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
    pack, one of another level or shape, or too few records of a class to
    split is a ConfigError; `train.progressive_fit` checks the sets."""
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
    try:
        folds = metrics.kfold_split([smp.label for smp in samples], k=k, seed=cfg.seed)
    except ValueError as exc:
        raise ConfigError(f"level {name}: {exc}") from exc
    train_set = [smp for smp, f in zip(samples, folds) if f != 0]
    val_set = [smp for smp, f in zip(samples, folds) if f == 0]
    return train_set, val_set


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
    try:
        results = train_ladder(cfg, {name: PATCH_TABLE[name][0] for name in cfg.levels},
                               functools.partial(_read_level, cfg, args.packs))
    except NonFiniteLoss as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    _make_out(args.out, cfg)
    for res in results:
        blob = nn_core.save_checkpoint(res.spec, res.best_weights)
        _atomic_write(os.path.join(args.out, f"checkpoint_{res.level}.ctck"), blob)
    _atomic_write(os.path.join(args.out, "checkpoint_final.ctck"), blob)
    _atomic_write(os.path.join(args.out, "history.csv"),
                  history_to_csv({res.level: res.history for res in results}))
    print(f"trained {len(results)} levels -> {args.out}")
    return 0


def cmd_eval(args):
    spec, weights, protocol, names = _load_model(args.checkpoint)
    cfg, rows = _manifest_run(args, protocol=protocol)
    labels = class_labels(rows, protocol)

    results = score_scans(spec, weights, cfg.seg, [row.path for row in rows],
                          args.masks, args.jobs)
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
    spec, weights, _, names = _load_model(args.checkpoint)
    probs, = score_scans(spec, weights, cfg.seg, [args.scan], None, 1)
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
