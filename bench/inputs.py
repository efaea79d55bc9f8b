"""Seeded inputs for the three workloads, written without ctscreen.

A workload's seed changes the content of its inputs (lung geometry, texture,
noise, patch values) but never their sizes, class mix or the program's
configuration, so every seed asks the program for the same amount of work.
"""

import os

import numpy as np

import formats

CHANNELS = (16, 32, 64, 128)
PROGRAM_SEED = 7  # config seed: fixes shuffles, augmentation draws, patch draws
HU_AIR, HU_BODY = -1000.0, 40.0
# base lung density per manifest label; the NCP grades sit in ground-glass range
LUNG_HU = {"NOR": -830.0, "MiNCP": -660.0, "MoNCP": -630.0, "SeNCP": -600.0,
           "CrNCP": -580.0}
NOISE_HU = 15.0
TEXTURE_HU = 18.0

# train_ladder: one pack per level, 5 NOR and 15 NCP records each. Per-class
# counts that are multiples of the 5 validation folds make the split exact:
# 16 records train and 4 validate at every level.
LADDER = {"P2": (32, 32, 12), "P3": (64, 64, 15), "P4": (128, 128, 20)}
LADDER_CLASS_COUNTS = (5, 15)
LADDER_EPOCHS = 2
LADDER_TRAIN_SIZE, LADDER_VAL_SIZE = 16, 4
LADDER_LR0, LADDER_DECAY = 1e-4, 0.97

# screen: MosMed's 512 x 512 grid; the checkpoint has the P4 -> P5 -> P6 shape
SCREEN_SCANS = (((512, 512, 36), "NOR"), ((512, 512, 40), "MiNCP"))
SCREEN_INPUT = (1, 36, 512, 512)
SCREEN_STEMS = 2
# hand-set head: P(NCP) = sigmoid(SCALE * (density - TAU * lung_fraction))
SCREEN_TAU = 0.185
SCREEN_SCALE = 60.0
INDICATOR_GAIN = 20.0

# cohort: mixed small grids, MosMed-like class mix (2 NOR : 6 NCP)
COHORT_SCANS = (
    ((112, 144, 32), "NOR"), ((120, 152, 36), "MiNCP"),
    ((128, 160, 40), "MiNCP"), ((136, 168, 44), "MoNCP"),
    ((144, 176, 40), "NOR"), ((128, 144, 36), "MiNCP"),
    ((120, 176, 32), "SeNCP"), ((136, 160, 44), "MoNCP"))
COHORT_LEVELS = ("P1", "P4")
JOBS = 2


def _rng(seed, *salt):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *salt])))


def _texture(rng, shape, amplitude):
    """Smooth separable sinusoid texture, zero-mean-ish, |t| <= amplitude."""
    total = np.zeros(shape, dtype=np.float32)
    for _ in range(3):
        axes = []
        for n in shape:
            freq = rng.uniform(1.5, 5.0) * 2 * np.pi / n
            axes.append(np.sin(freq * np.arange(n) + rng.uniform(0, 2 * np.pi)))
        r, c, s = (a.astype(np.float32) for a in axes)
        total += r[:, None, None] * c[None, :, None] * s[None, None, :]
    return total * np.float32(amplitude / 3.0)


def lung_geometry(rng, shape):
    """Two lung ellipsoids (center, semi-axes), jittered, clear of every face."""
    R, C, S = shape
    semi = np.array([0.27 * R, 0.17 * C, 0.36 * S])
    lungs = []
    for side in (-1, 1):
        a = semi * rng.uniform(0.94, 1.04, size=3)
        center = (R / 2 + rng.uniform(-0.02, 0.02) * R,
                  C / 2 + side * 0.22 * C, S / 2 + rng.uniform(-0.03, 0.03) * S)
        lungs.append((tuple(float(v) for v in center), tuple(float(v) for v in a)))
    return lungs


def lung_truth(shape, lungs):
    """True lung bits of a phantom from its geometry."""
    grids = [np.arange(n, dtype=np.float32) for n in shape]
    bits = np.zeros(shape, dtype=bool)
    for center, semi in lungs:
        r, c, s = ((g - c0) / a for g, c0, a in zip(grids, center, semi))
        bits |= (r[:, None, None] ** 2 + c[None, :, None] ** 2
                 + s[None, None, :] ** 2) <= 1.0
    return bits


def chest_phantom(rng, shape, lung_hu):
    """Stored int16 voxels (HU + 1024) and the lung geometry of one chest.

    Air outside an elliptic body cylinder that spans every slice; two lungs
    at `lung_hu` with texture; a few vessels inside the lungs for hole
    filling to close; white noise everywhere.
    """
    R, C, S = shape
    lungs = lung_geometry(rng, shape)
    rr = (np.arange(R, dtype=np.float32) - R / 2) / (0.40 * R)
    cc = (np.arange(C, dtype=np.float32) - C / 2) / (0.46 * C)
    body = (rr[:, None] ** 2 + cc[None, :] ** 2) <= 1.0
    hu = np.full(shape, HU_AIR, dtype=np.float32)
    hu[body] = HU_BODY
    truth = lung_truth(shape, lungs)
    hu[truth] = lung_hu + _texture(rng, shape, TEXTURE_HU)[truth]
    radius = max(2.0, 0.012 * C)
    for center, semi in lungs:
        for _ in range(4):
            pos = np.array(center) + rng.uniform(-0.5, 0.5, size=3) * np.array(semi)
            lo = np.maximum(np.floor(pos - radius), 0).astype(int)
            hi = np.minimum(np.ceil(pos + radius) + 1, shape).astype(int)
            box = tuple(slice(a, b) for a, b in zip(lo, hi))
            ball = lung_truth(tuple(hi - lo), [(tuple(pos - lo), (radius,) * 3)])
            hu[box][ball] = HU_BODY
    hu += rng.standard_normal(shape, dtype=np.float32) * np.float32(NOISE_HU)
    stored = np.clip(np.rint(hu) + 1024, 0, 4095).astype(np.int16)
    return stored, lungs


def write_scans(dirname, seed, scans):
    """Phantom NIfTI files for (shape, label) pairs; (path, label) rows, geometry."""
    rows, geometry = [], []
    for i, (shape, label) in enumerate(scans):
        rng = _rng(seed, i)
        stored, lungs = chest_phantom(rng, shape, LUNG_HU[label] + rng.uniform(-15, 15))
        path = os.path.join(dirname, f"scan{i}.nii.gz")
        formats.write_nifti_gz(path, stored, spacing=(0.8, 0.8, 8.0), inter=-1024.0)
        rows.append((path, label))
        geometry.append(lungs)
    return rows, geometry


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ------------------------------------------------------------ model specs

def model_layers(stems, channels=CHANNELS, class_count=2):
    """Layer dicts in ctscreen's spec JSON: stems, base model, dense head."""
    def conv(co):
        return {"kind": "conv3d", "kernel": [3, 3, 3], "stride": [1, 1, 1],
                "padding": [1, 1, 1], "out_channels": co}
    pool = {"kind": "maxpool3d", "window": [2, 2, 2], "clamp_window": True}
    bn = {"kind": "batchnorm3d"}
    layers = []
    for _ in range(stems):
        layers += [conv(1), pool, bn]
    for ch in channels:
        layers += [conv(ch), {"kind": "relu"}, pool, bn]
    return layers + [{"kind": "gap"}, {"kind": "dense", "units": 64},
                     {"kind": "dropout", "rate": 0.5},
                     {"kind": "dense", "units": class_count}, {"kind": "softmax"}]


def tensor_shapes(spec):
    """{tensor name: shape} that a spec's layers own, in ctscreen's naming."""
    shapes, ch = {}, spec["input_shape"][0]
    for i, layer in enumerate(spec["layers"]):
        kind = layer["kind"]
        if kind == "conv3d":
            co = layer["out_channels"]
            shapes[f"L{i}.kernel"] = (co, ch, *layer["kernel"])
            shapes[f"L{i}.bias"] = (co,)
            ch = co
        elif kind == "batchnorm3d":
            for suffix in ("gamma", "beta", "running_mean", "running_var"):
                shapes[f"L{i}.{suffix}"] = (ch,)
        elif kind == "dense":
            shapes[f"L{i}.weight"] = (ch, layer["units"])
            shapes[f"L{i}.bias"] = (layer["units"],)
            ch = layer["units"]
    return shapes


def screen_weights(spec):
    """Weights that make P(NCP) follow the mean lung density.

    Stems and the first base conv smooth the input; the first base conv also
    emits relu(g*x) and relu(g*x - 1), whose difference after pooling is a
    lung indicator in [0, 1]. Later convs carry density (channel 0) and the
    indicator (channel 1) unchanged, so global average pooling yields the
    density sum and the lung share, and the head compares their ratio with
    SCREEN_TAU. Every other weight is zero and batchnorm is identity.
    """
    w = {n: np.zeros(s, dtype=np.float32) for n, s in tensor_shapes(spec).items()}
    convs = [i for i, l in enumerate(spec["layers"]) if l["kind"] == "conv3d"]
    denses = [i for i, l in enumerate(spec["layers"]) if l["kind"] == "dense"]
    base = convs[-len(CHANNELS):]
    for i in convs:
        k = w[f"L{i}.kernel"]
        if i not in base:
            k[0, 0] = 1.0 / 27
        elif i == base[0]:
            k[0, 0] = 1.0 / 27
            k[1, 0, 1, 1, 1] = k[2, 0, 1, 1, 1] = INDICATOR_GAIN
            w[f"L{i}.bias"][2] = -1.0
        elif i == base[1]:
            k[0, 0, 1, 1, 1] = k[1, 1, 1, 1, 1] = 1.0
            k[1, 2, 1, 1, 1] = -1.0
        else:
            k[0, 0, 1, 1, 1] = k[1, 1, 1, 1, 1] = 1.0
    for name in w:
        if name.endswith((".gamma", ".running_var")):
            w[name][:] = 1.0
    w[f"L{denses[0]}.weight"][0, 0] = 1.0
    w[f"L{denses[0]}.weight"][1, 0] = -SCREEN_TAU
    w[f"L{denses[1]}.weight"][0, 1] = SCREEN_SCALE
    return w


# -------------------------------------------------------------- workloads

def _ladder_pack(rng, shape):
    """Lung-disc patches with NOR or NCP density, texture and noise."""
    r, c, s = shape
    rr = (np.arange(r, dtype=np.float32) - r / 2) / (0.45 * r)
    cc = (np.arange(c, dtype=np.float32) - c / 2) / (0.45 * c)
    lung = ((rr[:, None] ** 2 + cc[None, :] ** 2) <= 1.0)[:, :, None]
    nor, ncp = LADDER_CLASS_COUNTS
    labels = rng.permutation([0] * nor + [1] * ncp)
    records = []
    for n, label in enumerate(labels):
        hu = LUNG_HU["NOR" if label == 0 else "MiNCP"] + _texture(rng, shape, TEXTURE_HU)
        hu += rng.standard_normal(shape, dtype=np.float32) * np.float32(NOISE_HU)
        tensor = np.clip(np.where(lung, (hu + 1000) / 1400, 0.0), 0.0, 1.0)
        origin = tuple(int(rng.integers(0, 512 - e + 1)) for e in (r, c)) + (
            int(rng.integers(0, 36 - s + 1)),)
        records.append((f"case{n:02d}", int(label), origin, tensor.astype(np.float32)))
    return records


def setup_train_ladder(root, out_root, seed):
    packs = os.path.join(root, "packs")
    os.makedirs(packs, exist_ok=True)
    for li, (level, shape) in enumerate(LADDER.items()):
        formats.write_pack(os.path.join(packs, f"{level}.pack"), level,
                           _ladder_pack(_rng(seed, li), shape))
    cfg = os.path.join(root, "run.cfg")
    _write_text(cfg, f"""\
protocol = binary
seed = {PROGRAM_SEED}
patch.levels = {",".join(LADDER)}
model.channels = {",".join(map(str, CHANNELS))}
augment.enabled = true
rebalance.mode = inverse_frequency
train.lr0 = {LADDER_LR0!r}
train.decay_rate = {LADDER_DECAY!r}
train.max_epochs = {LADDER_EPOCHS}
train.patience = {LADDER_EPOCHS - 1}
train.batch_size = 8
""")
    out = os.path.join(out_root, "run")
    return {"commands": [["train", "--config", cfg, "--packs", packs, "--out", out]],
            "items_per_round": LADDER_EPOCHS * LADDER_TRAIN_SIZE * len(LADDER),
            "jobs": 1, "out": out}


def setup_screen(root, out_root, seed):
    scans = os.path.join(root, "scans")
    os.makedirs(scans, exist_ok=True)
    rows, _ = write_scans(scans, seed, SCREEN_SCANS)
    spec = {"input_shape": list(SCREEN_INPUT), "class_count": 2,
            "layers": model_layers(SCREEN_STEMS)}
    ckpt = os.path.join(root, "screen.ctck")
    formats.write_checkpoint(ckpt, spec, screen_weights(spec))
    cfg = os.path.join(root, "run.cfg")
    _write_text(cfg, f"protocol = binary\nseed = {PROGRAM_SEED}\n")
    return {"commands": [["predict", path, "--checkpoint", ckpt, "--config", cfg]
                         for path, _ in rows],
            "items_per_round": len(rows), "jobs": 1,
            "expected": ["NOR" if label == "NOR" else "NCP" for _, label in rows]}


def setup_cohort(root, out_root, seed):
    scans = os.path.join(root, "scans")
    os.makedirs(scans, exist_ok=True)
    rows, geometry = write_scans(scans, seed, COHORT_SCANS)
    manifest = os.path.join(root, "manifest.csv")
    _write_text(manifest, "".join(f"{p},{label}\n" for p, label in rows))
    cfg = os.path.join(root, "run.cfg")
    _write_text(cfg, f"protocol = binary\nseed = {PROGRAM_SEED}\n")
    masks = os.path.join(out_root, "masks")
    packs = os.path.join(out_root, "packs")
    common = ["--manifest", manifest, "--config", cfg, "--jobs", str(JOBS)]
    commands = [["segment", *common, "--out", masks]]
    for level in COHORT_LEVELS:
        commands.append(["patch", *common, "--masks", masks, "--level", level,
                         "--out", packs])
    return {"commands": commands, "items_per_round": len(rows), "jobs": JOBS,
            "rows": rows, "geometry": geometry, "masks": masks, "packs": packs}


# workload -> setup(inputs dir, outputs dir, seed) -> plan of one round
SETUPS = {"train_ladder": setup_train_ladder, "screen": setup_screen,
          "cohort": setup_cohort}
