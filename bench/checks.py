"""Checks of the program's outputs, made apart from the program.

Each check reads the outputs of a run's last round from their documented
layouts (`formats`, gzip, struct, numpy, scipy) and returns a list of
problems; an empty list means the outputs are correct. Nothing here
compares against a stored copy of earlier output: every expectation comes
from how the inputs were built or from properties the method must have.
"""

import csv
import math
import os

import numpy as np
from scipy import ndimage

import formats
import inputs

# the README's patch pyramid: level -> ((rows, cols, slices), patches per scan)
PYRAMID = {"P1": ((16, 16, 9), 64), "P2": ((32, 32, 12), 32),
           "P3": ((64, 64, 15), 16), "P4": ((128, 128, 20), 8),
           "P5": ((256, 256, 27), 4), "P6": ((512, 512, 36), 1)}
STANDARD_SHAPE = (512, 512, 36)
HU_CLIP = (-1000.0, 400.0)
KEEP_K = 2
# erosion by 2 voxels thins the small cohort lungs to Dice 0.83-0.88 against
# the true lungs; a mask that loses one lung scores about 0.55
DICE_FLOOR = 0.75
VOXEL_TOLERANCE = 1e-5
VOXELS_PER_PACK = 256


def _stem(path):
    return os.path.basename(path)[:-len(".nii.gz")]


def dice(a, b):
    return 2.0 * float((a & b).sum()) / float(a.sum() + b.sum())


# ------------------------------------------------------------------ cohort

def check_masks(rows, geometry, masks_dir):
    problems = []
    for (path, _), lungs in zip(rows, geometry):
        name = os.path.join(masks_dir, _stem(path) + "_mask.nii.gz")
        try:
            raw, _, _ = formats.read_nifti(name)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{name}: {exc}")
            continue
        bits = raw > 0
        truth = inputs.lung_truth(bits.shape, lungs)
        score = dice(bits, truth)
        if score < DICE_FLOOR:
            problems.append(f"{name}: Dice {score:.3f} below {DICE_FLOOR}")
        _, parts = ndimage.label(bits, structure=np.ones((3, 3, 3)))
        if parts > KEEP_K:
            problems.append(f"{name}: {parts} components, more than {KEEP_K}")
    return problems


def _lung_box(bits):
    """In-plane lung box in standardized index space, [lo, hi) per axis."""
    box = []
    for axis in (0, 1):
        other = tuple(a for a in range(3) if a != axis)
        hits = np.nonzero(bits.any(axis=other))[0]
        scale = (STANDARD_SHAPE[axis] - 1) / (bits.shape[axis] - 1)
        box.append((hits[0] * scale, hits[-1] * scale + 1))
    return box


def _standard_values(hu, bits, points):
    """Independent trilinear resample of the masked, clipped scan at points."""
    lo, hi = HU_CLIP
    vox = np.clip(np.where(bits, hu, lo), lo, hi).astype(np.float64)
    coords = [points[:, a] * ((vox.shape[a] - 1) / (STANDARD_SHAPE[a] - 1))
              for a in range(3)]
    sampled = ndimage.map_coordinates(vox, coords, order=1, mode="nearest")
    return (sampled - lo) / (hi - lo)


def check_pack(path, level, rows, masks_dir, seed):
    """Count, shape, labels, range, lung coverage and sampled voxel values."""
    try:
        got_level, shape, records = formats.read_pack(path)
    except (OSError, ValueError) as exc:
        return [f"{path}: {exc}"]
    want_shape, per_scan = PYRAMID[level]
    problems = []
    if got_level != level or shape != want_shape:
        problems.append(f"{path}: level {got_level} shape {shape}, "
                        f"expected {level} {want_shape}")
    if len(records) != per_scan * len(rows):
        problems.append(f"{path}: {len(records)} records, expected "
                        f"{per_scan} x {len(rows)} scans")
    labels = {_stem(p): int(label != "NOR") for p, label in rows}
    by_scan = {}
    for i, (sid, label, origin, tensor) in enumerate(records):
        if labels.get(sid) != label:
            problems.append(f"{path}: record {i} of {sid} has label {label}")
        if not (tensor.min() >= 0.0 and tensor.max() <= 1.0):
            problems.append(f"{path}: record {i} leaves [0,1]")
        by_scan.setdefault(sid, []).append(i)
    if problems:
        return problems
    if sorted(len(v) for v in by_scan.values()) != [per_scan] * len(rows):
        problems.append(f"{path}: patches per scan {sorted(map(len, by_scan.values()))}")

    rng = np.random.default_rng(seed)
    for path_scan, _ in rows:
        sid = _stem(path_scan)
        stored, slope, inter = formats.read_nifti(path_scan)
        hu = stored.astype(np.float32) * np.float32(slope) + np.float32(inter)
        raw_mask, _, _ = formats.read_nifti(
            os.path.join(masks_dir, sid + "_mask.nii.gz"))
        bits = raw_mask > 0
        (r0, r1), (c0, c1) = _lung_box(bits)
        idx = by_scan[sid]
        for i in idx:
            (orow, ocol, _), (pr, pc, _) = records[i][2], shape
            cover = (max(0.0, min(orow + pr, r1) - max(orow, r0))
                     * max(0.0, min(ocol + pc, c1) - max(ocol, c0)))
            # one voxel of slack per side: the program rounds the box outward
            if cover < 0.5 * pr * pc - (pr + pc):
                problems.append(f"{path}: record {i} covers {cover:.0f} of "
                                f"{pr * pc} in-plane voxels with the lung box")
        picks = rng.integers(0, len(idx), size=VOXELS_PER_PACK // len(rows))
        offsets = rng.integers(0, shape, size=(len(picks), 3))
        points = np.array([np.add(records[idx[p]][2], o) for p, o in zip(picks, offsets)])
        got = np.array([records[idx[p]][3][tuple(o)] for p, o in zip(picks, offsets)])
        want = _standard_values(hu, bits, points)
        worst = float(np.abs(got - want).max())
        if worst > VOXEL_TOLERANCE:
            problems.append(f"{path}: {sid} voxels differ from an independent "
                            f"resample by up to {worst:.2e}")
    return problems


def check_cohort(plan, result, seed):
    problems = check_masks(plan["rows"], plan["geometry"], plan["masks"])
    if problems:
        return problems
    for level in inputs.COHORT_LEVELS:
        problems += check_pack(os.path.join(plan["packs"], f"{level}.pack"), level,
                               plan["rows"], plan["masks"], seed)
    return problems


# ------------------------------------------------------------------ screen

def check_prediction(text, expected):
    """Printed probabilities in [0,1] summing to 1; label is argmax and true."""
    lines = text.strip().splitlines()
    try:
        probs = {name: float(p) for name, p in (ln.split() for ln in lines[:-1])}
        label = lines[-1].split("label:")[1].strip()
    except (ValueError, IndexError):
        return [f"unreadable prediction {text!r}"]
    values = list(probs.values())
    problems = []
    if sorted(probs) != ["NCP", "NOR"]:
        problems.append(f"classes {sorted(probs)}, expected NOR and NCP")
    if not all(0.0 <= p <= 1.0 for p in values):
        problems.append(f"probabilities {values} leave [0,1]")
    if not abs(sum(values) - 1.0) <= 3e-6:  # two 6-decimal roundings
        problems.append(f"probabilities {values} sum to {sum(values)}")
    if probs and label != max(probs, key=probs.get):
        problems.append(f"label {label} is not the argmax of {probs}")
    if label != expected:
        problems.append(f"label {label}, but the phantom's lung density makes it {expected}")
    return problems


def check_screen(plan, result, seed):
    problems = []
    for text, expected, argv in zip(result["outputs"], plan["expected"], plan["commands"]):
        problems += [f"{argv[1]}: {p}" for p in check_prediction(text, expected)]
    return problems


# ------------------------------------------------------------ train_ladder

def check_history(path):
    """Rows per level, finite positive losses, accuracies on the set-size grid, lr."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return [f"{path}: {exc}"]
    header = ["level", "epoch", "train_loss", "train_acc", "val_loss", "val_acc", "lr"]
    if not rows or rows[0] != header:
        return [f"{path}: header {rows[:1]}"]
    problems = []
    levels = [r[0] for r in rows[1:]]
    want = [lv for lv in inputs.LADDER for _ in range(inputs.LADDER_EPOCHS)]
    if levels != want:
        problems.append(f"{path}: levels per row {levels}, expected {want}")
    for n, r in enumerate(rows[1:], start=2):
        try:
            epoch = int(r[1])
            tl, ta, vl, va, lr = (float(v) for v in r[2:7])
        except (ValueError, IndexError):
            problems.append(f"{path} line {n}: unreadable {r}")
            continue
        if not all(math.isfinite(v) and v > 0 for v in (tl, vl)):
            problems.append(f"{path} line {n}: losses {tl}, {vl}")
        for acc, size in ((ta, inputs.LADDER_TRAIN_SIZE), (va, inputs.LADDER_VAL_SIZE)):
            if not (math.isfinite(acc) and abs(acc * size - round(acc * size)) < 1e-9
                    and 0 <= acc <= 1):
                problems.append(f"{path} line {n}: accuracy {acc} is not k/{size}")
        want_lr = inputs.LADDER_LR0 * inputs.LADDER_DECAY ** epoch
        if not math.isclose(lr, want_lr, rel_tol=1e-12):
            problems.append(f"{path} line {n}: lr {lr} at epoch {epoch}")
    return problems


def _matches(got, want):
    """Layer dict `got` has every key of `want` with the same value."""
    return all(got.get(k) == v for k, v in want.items())


def check_checkpoints(run_dir):
    """Each level is the previous level behind one stem; names, shapes, finite."""
    problems, prev = [], None
    for li, (level, (r, c, s)) in enumerate(inputs.LADDER.items()):
        path = os.path.join(run_dir, f"checkpoint_{level}.ctck")
        try:
            spec, tensors = formats.read_checkpoint(path)
        except (OSError, ValueError) as exc:
            problems.append(f"{path}: {exc}")
            break
        layers = spec["layers"]
        if spec["input_shape"] != [1, s, r, c] or spec["class_count"] != 2:
            problems.append(f"{path}: input {spec['input_shape']} classes "
                            f"{spec['class_count']}")
        if prev is None:
            want = inputs.model_layers(0)
            ok = len(layers) == len(want) and all(map(_matches, layers, want))
        else:
            ok = (layers[3:] == prev and len(layers) == len(prev) + 3
                  and all(map(_matches, layers[:3], inputs.model_layers(1)[:3])))
        if not ok:
            problems.append(f"{path}: layers do not follow the ladder")
        shapes = inputs.tensor_shapes(spec)
        got = {name: t.shape for name, t in tensors.items()}
        if got != shapes:
            problems.append(f"{path}: tensors {sorted(got)} do not match the spec")
        bad = [name for name, t in tensors.items() if not np.all(np.isfinite(t))]
        if bad:
            problems.append(f"{path}: non-finite tensors {bad}")
        prev = layers
    final = os.path.join(run_dir, "checkpoint_final.ctck")
    last = os.path.join(run_dir, f"checkpoint_{list(inputs.LADDER)[-1]}.ctck")
    if not problems:
        with open(final, "rb") as a, open(last, "rb") as b:
            if a.read() != b.read():
                problems.append(f"{final} differs from {last}")
    return problems


def check_train_ladder(plan, result, seed):
    return (check_history(os.path.join(plan["out"], "history.csv"))
            + check_checkpoints(plan["out"]))


CHECKS = {"train_ladder": check_train_ladder, "screen": check_screen,
          "cohort": check_cohort}
