"""Acceptance gate: eleven numbered criteria, one test per criterion.

`python3 -m pytest tests/test_acceptance.py -v` gives one pass/fail line
per criterion; add `-s` to also see the timed [PASS]/[FAIL] summary lines.
"""

import time
from contextlib import contextmanager

import numpy as np

from ctscreen import cli, nn_core as nn
from ctscreen import train as tr
from ctscreen.metrics import precision_recall_f1, roc_curve
from ctscreen.nifti_io import DATATYPES, read_raw, write_nifti
from ctscreen.packs import read_pack, write_pack
from ctscreen.patch_sampler import PATCH_TABLE, Sample, extract_patches
from ctscreen.phantoms import lung_phantom
from ctscreen.rebalance import class_weights
from ctscreen.segmentation import (SegmentationParams, component_count,
                                   fill_holes, segment_lung)
from ctscreen.train import TrainConfig

from synth import blob_dataset, blob_tensor, dice


@contextmanager
def criterion(num, name, budget):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:2d}: {name}")
        raise
    elapsed = time.perf_counter() - t0
    status = "PASS" if elapsed < budget else "FAIL"
    print(f"[{status}] criterion {num:2d}: {name} "
          f"({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s"


def fd_grad(fun, arr, h=1e-5):
    g = np.zeros_like(arr)
    flat, gf = arr.ravel(), g.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        fp = fun()
        flat[i] = old - h
        fm = fun()
        flat[i] = old
        gf[i] = (fp - fm) / (2 * h)
    return g


def max_rel_err(a, b, floor=1e-4):
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


# ------------------------------------------------------------- criterion 1

def test_c01_layer_and_model_gradients():
    with criterion(1, "finite-difference gradients < 1e-5", 60):
        rng = np.random.default_rng(0)
        worst = 0.0

        x = rng.standard_normal((2, 2, 3, 4, 4))
        k = rng.standard_normal((3, 2, 2, 2, 2))
        b = rng.standard_normal(3)
        proj = rng.standard_normal(nn.conv3d_forward(x, k, b, 1, 1).shape)

        def j_conv():
            return float((nn.conv3d_forward(x, k, b, 1, 1) * proj).sum())
        gx, gk, gb = nn.conv3d_backward(x, k, proj, 1, 1)
        worst = max(worst, max_rel_err(gx, fd_grad(j_conv, x)),
                    max_rel_err(gk, fd_grad(j_conv, k)),
                    max_rel_err(gb, fd_grad(j_conv, b)))

        # distinct values keep the pool argmax away from decision boundaries
        xp = 0.01 * rng.permutation(np.arange(2 * 2 * 64, dtype=np.float64)) \
            .reshape(2, 2, 4, 4, 4)
        pooled, cache = nn.maxpool3d_forward(xp, 2)
        projp = rng.standard_normal(pooled.shape)

        def j_pool():
            return float((nn.maxpool3d_forward(xp, 2)[0] * projp).sum())
        worst = max(worst, max_rel_err(nn.maxpool3d_backward(projp, cache),
                                       fd_grad(j_pool, xp)))

        xb = rng.standard_normal((3, 2, 2, 3, 3))
        gamma = rng.uniform(0.5, 1.5, 2)
        beta = rng.standard_normal(2)
        rm, rv = rng.standard_normal(2), rng.uniform(0.5, 2.0, 2)
        for mode in ("train", "infer"):
            _, cache, _, _ = nn.batchnorm3d_forward(xb, gamma, beta, mode, rm, rv)
            projb = rng.standard_normal(xb.shape)

            def j_bn():
                out, _, _, _ = nn.batchnorm3d_forward(xb, gamma, beta, mode,
                                                      rm, rv)
                return float((out * projb).sum())
            gx, gg, gbe = nn.batchnorm3d_backward(projb, cache)
            worst = max(worst, max_rel_err(gx, fd_grad(j_bn, xb)),
                        max_rel_err(gg, fd_grad(j_bn, gamma)),
                        max_rel_err(gbe, fd_grad(j_bn, beta)))

        def small(kind, x, weights=None, seed=0, **fields):
            # relu, gap, dense and dropout live in the engine's dispatch
            return nn._layer(0, nn.LayerSpec(kind, **fields), weights or {}, x,
                             "train", seed)

        xr = rng.standard_normal((4, 3, 2, 2, 2))
        xr += np.sign(xr) * 1e-2  # step over the kink at zero
        projr = rng.standard_normal(xr.shape)

        def j_relu():
            return float((small("relu", xr)[0] * projr).sum())
        worst = max(worst, max_rel_err(small("relu", xr)[1](projr)[0],
                                       fd_grad(j_relu, xr)))

        xg = rng.standard_normal((2, 3, 2, 2, 2))
        projg = rng.standard_normal((2, 3))

        def j_gap():
            return float((small("gap", xg)[0] * projg).sum())
        worst = max(worst, max_rel_err(small("gap", xg)[1](projg)[0],
                                       fd_grad(j_gap, xg)))

        xd = rng.standard_normal((3, 4))
        wd = rng.standard_normal((4, 5))
        bd = rng.standard_normal(5)
        projd = rng.standard_normal((3, 5))
        dense_w = {"L0.weight": wd, "L0.bias": bd}

        def j_dense():
            return float((small("dense", xd, dense_w, units=5)[0] * projd).sum())
        gx, gd = small("dense", xd, dense_w, units=5)[1](projd)
        worst = max(worst, max_rel_err(gx, fd_grad(j_dense, xd)),
                    max_rel_err(gd["L0.weight"], fd_grad(j_dense, wd)),
                    max_rel_err(gd["L0.bias"], fd_grad(j_dense, bd)))

        xo = rng.standard_normal((3, 6))
        projo = rng.standard_normal(xo.shape)

        def j_drop():
            return float((small("dropout", xo, seed=5, rate=0.4)[0] * projo).sum())
        worst = max(worst, max_rel_err(small("dropout", xo, seed=5, rate=0.4)[1](projo)[0],
                                       fd_grad(j_drop, xo)))

        # end-to-end tiny model at 64-bit, every trainable coordinate
        spec = nn.base_model((1, 4, 6, 6), 3, channels=(2,))
        weights = {n: w.astype(np.float64) for n, w
                   in nn.init_weights(spec, seed=1).items()}
        for n in weights:
            if n.endswith(".bias"):
                weights[n] = weights[n] + 0.3  # keep relu inputs off the kink
        xm = rng.standard_normal((4, 1, 4, 6, 6))
        ym = np.array([0, 1, 2, 1])
        wvec = np.array([0.5, 1.0, 1.5])

        def j_model():
            live = {n: w.copy() for n, w in weights.items()}
            loss, _, _ = nn.loss_and_grads(spec, live, xm, ym, wvec,
                                           mode="train", seed=9)
            return loss
        _, grads, _ = nn.loss_and_grads(spec, {n: w.copy() for n, w
                                               in weights.items()},
                                        xm, ym, wvec, mode="train", seed=9)
        for name in sorted(nn.trainable_names(weights)):
            worst = max(worst, max_rel_err(grads[name],
                                           fd_grad(j_model, weights[name])))
        assert worst < 1e-5, f"worst relative gradient error {worst:.3e}"


# ------------------------------------------------------------- criterion 2

def _conv_oracle(x, kernel, bias, stride, padding):
    sd, sh, sw = stride
    pd, ph, pw = padding
    B, Ci, D, H, W = x.shape
    Co, _, kd, kh, kw = kernel.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw)))
    Do = (D + 2 * pd - kd) // sd + 1
    Ho = (H + 2 * ph - kh) // sh + 1
    Wo = (W + 2 * pw - kw) // sw + 1
    out = np.zeros((B, Co, Do, Ho, Wo))
    for bb in range(B):
        for o in range(Co):
            for d in range(Do):
                for h in range(Ho):
                    for w in range(Wo):
                        patch = xp[bb, :, d * sd:d * sd + kd,
                                   h * sh:h * sh + kh, w * sw:w * sw + kw]
                        out[bb, o, d, h, w] = (patch * kernel[o]).sum() + bias[o]
    return out


def _pool_oracle(x, window, stride):
    kd, kh, kw = window
    sd, sh, sw = stride
    B, C, D, H, W = x.shape
    Do = (D - kd) // sd + 1
    Ho = (H - kh) // sh + 1
    Wo = (W - kw) // sw + 1
    out = np.zeros((B, C, Do, Ho, Wo))
    for bb in range(B):
        for c in range(C):
            for d in range(Do):
                for h in range(Ho):
                    for w in range(Wo):
                        out[bb, c, d, h, w] = x[bb, c, d * sd:d * sd + kd,
                                                h * sh:h * sh + kh,
                                                w * sw:w * sw + kw].max()
    return out


def test_c02_conv_pool_match_loop_oracles():
    with criterion(2, "conv/pool equal nested-loop oracles < 1e-10", 10):
        rng = np.random.default_rng(7)
        for _ in range(8):
            ci, co = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            d, h, w = (int(rng.integers(4, 7)) for _ in range(3))
            kd, kh, kw = (int(rng.integers(1, 4)) for _ in range(3))
            stride = tuple(int(rng.integers(1, 3)) for _ in range(3))
            padding = tuple(int(rng.integers(0, 2)) for _ in range(3))
            x = rng.standard_normal((2, ci, d, h, w))
            kern = rng.standard_normal((co, ci, kd, kh, kw))
            bias = rng.standard_normal(co)
            got = nn.conv3d_forward(x, kern, bias, stride, padding)
            want = _conv_oracle(x, kern, bias, stride, padding)
            assert np.max(np.abs(got - want)) < 1e-10
        for _ in range(8):
            c = int(rng.integers(1, 4))
            d, h, w = (int(rng.integers(4, 9)) for _ in range(3))
            win = tuple(int(rng.integers(1, 4)) for _ in range(3))
            win = tuple(min(wn, n) for wn, n in zip(win, (d, h, w)))
            x = rng.standard_normal((2, c, d, h, w))
            got, _ = nn.maxpool3d_forward(x, win, win)
            want = _pool_oracle(x, win, win)
            assert np.max(np.abs(got - want)) < 1e-10


# ------------------------------------------------------------- criterion 3

def test_c03_auc_equals_pair_statistic():
    with criterion(3, "trapezoid AUC equals pair counting < 1e-12 x1000", 10):
        rng = np.random.default_rng(13)
        for case in range(1000):
            n = int(rng.integers(6, 30))
            scores = rng.random(n)
            if case % 2:
                scores = np.round(scores, 1)  # force cross-class ties
            labels = rng.integers(0, 2, size=n)
            labels[:2] = [0, 1]
            pos, neg = scores[labels == 1], scores[labels == 0]
            wins = sum((a > b) + 0.5 * (a == b) for a in pos for b in neg)
            want = wins / (len(pos) * len(neg))
            assert abs(roc_curve(scores, labels)[1] - want) < 1e-12


# ------------------------------------------------------------- criterion 4

def test_c04_published_confusion_rates_replay():
    with criterion(4, "published confusion-table rates within 0.01 points", 1):
        two = precision_recall_f1(np.array([[167, 8], [87, 848]]))
        assert abs(two.recall[0] * 100 - 65.75) < 0.01
        assert abs(two.recall[1] * 100 - 99.06) < 0.01
        four = precision_recall_f1(np.array([
            [188, 67, 3, 2],
            [62, 580, 29, 13],
            [3, 22, 86, 1],
            [1, 15, 7, 31]]))
        for got, want in zip(four.recall * 100, (74.02, 84.80, 68.80, 65.95)):
            assert abs(got - want) < 0.01
        # actual supports implied by the table columns
        assert four.matrix.sum(axis=0).tolist() == [254, 684, 125, 47]


# ------------------------------------------------------------- criterion 5

def test_c05_phantom_segmentation_quality():
    with criterion(5, "phantom Dice >= 0.95, <= 2 parts, hole-free", 30):
        vessels = ((60, 74, 45), (55, 70, 40), (64, 186, 48))
        hu, truth = lung_phantom(vessel_centers=vessels)
        params = SegmentationParams(erode_radius=1.0)
        got = segment_lung(hu, params)
        score = dice(got, truth)
        assert score >= 0.95, f"dice {score:.4f}"
        assert component_count(got, params.connectivity) <= 2
        assert np.array_equal(fill_holes(got), got)


# ------------------------------------------------------------- criterion 6

def test_c06_patch_count_law():
    with criterion(6, "patch counts per level are exact", 30):
        per_scan = {"P1": 64, "P2": 32, "P3": 16, "P4": 8, "P5": 4, "P6": 1}
        # the published corpus of 1110 scans implies these pack sizes
        totals = dict(zip(per_scan, (71040, 35520, 17760, 8880, 4440, 1110)))
        for name, count in per_scan.items():
            assert 1110 * count == totals[name]

        rng = np.random.default_rng(3)
        vox = np.full((64, 100, 20), -1000.0, dtype=np.float32)
        bits = np.zeros(vox.shape, dtype=bool)
        bits[18:46, 20:80, 4:16] = True
        vox[bits] = rng.uniform(-900.0, -500.0, size=int(bits.sum()))
        for name, count in per_scan.items():
            patches = extract_patches(vox, bits, name, seed=17, source_id="law")
            assert len(patches) == count, name
            assert all(p.tensor.shape == PATCH_TABLE[name][0] for p in patches)


# ------------------------------------------------------------- criterion 7

def test_c07_class_weight_checks():
    with criterion(7, "class weights and uniform-mode identity", 5):
        w = class_weights((254, 856), "paper_formula")
        assert abs(w[0] - 0.2288) < 1e-4
        assert abs(w[1] - 0.7712) < 1e-4

        rng = np.random.default_rng(5)
        logits = rng.standard_normal((40, 3))
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 3, size=40)
        uniform = class_weights((10, 20, 10), "uniform")
        weighted, _ = nn.weighted_cross_entropy(probs, labels, uniform)
        plain = float(np.mean(-np.log(probs[np.arange(40), labels])))
        assert abs(weighted - plain) < 1e-12


# ------------------------------------------------------------- criterion 8

def test_c08_overfit_small_blob_dataset():
    with criterion(8, "100% train accuracy on 40 blobs within 200 epochs", 300):
        data = blob_dataset(40, seed=11, shape=(12, 12, 6))
        spec = nn.base_model((1, 6, 12, 12), 2, channels=(4, 8))
        config = TrainConfig(lr0=1e-3, max_epochs=200, patience=30,
                             batch_size=8, seed=3, weight_mode="uniform")
        _, history = tr.fit(spec, nn.init_weights(spec, seed=3),
                            data, data, config)
        hits = [h.epoch for h in history if h.train_acc == 1.0]
        assert hits, "never reached 100% training accuracy"
        assert hits[0] < 200


# ------------------------------------------------------------- criterion 9

def _cut_patches(scans, labels, name, shape, per_scan, seed):
    rng = np.random.default_rng(seed)
    out = []
    for i, (tensor, label) in enumerate(zip(scans, labels)):
        if tensor.shape == shape:
            out.append(Sample(tensor, label, f"s{i:03d}", name))
            continue
        for _ in range(per_scan):
            origin = tuple(int(rng.integers(0, n - p + 1))
                           for n, p in zip(tensor.shape, shape))
            r, c, s = origin
            pr, pc, ps = shape
            out.append(Sample(tensor[r:r + pr, c:c + pc, s:s + ps].copy(),
                              label, f"s{i:03d}", name, origin))
    return out


def _split(samples):
    # hold out every fifth source scan so all levels share one scan split
    val = lambda s: int(s.source_id[1:]) % 5 == 0
    return ([s for s in samples if not val(s)], [s for s in samples if val(s)])


def _final_auc(spec, weights, val_set):
    x, y = tr.to_batch(val_set)
    probs = nn.model_forward(spec, weights, x)
    return roc_curve(probs[:, 1], y == 1)[1]


def test_c09_progressive_ladder_smoke_and_direction(monkeypatch):
    with criterion(9, "ladder transfers bit-exact and AUC >= baseline", 900):
        rng = np.random.default_rng(29)
        scans = [blob_tensor(rng, (32, 32, 32), 2 * (i % 2) + 1, radius=3)
                 for i in range(200)]
        labels = [i % 2 for i in range(200)]
        ladder = [("A4", (8, 8, 8), 8), ("A5", (16, 16, 16), 4),
                  ("A6", (32, 32, 32), 1)]
        datasets = {name: _split(_cut_patches(scans, labels, name, shape,
                                              per_scan, seed=40 + i))
                    for i, (name, shape, per_scan) in enumerate(ladder)}
        config = TrainConfig(lr0=3e-4, max_epochs=8, patience=5,
                             batch_size=16, seed=21, weight_mode="uniform")

        shapes = {name: shape for name, shape, _ in ladder}
        inits, fit = [], tr.fit

        def recording(spec, weights_init, *args, **kwargs):
            inits.append({n: w.copy() for n, w in weights_init.items()})
            return fit(spec, weights_init, *args, **kwargs)
        with monkeypatch.context() as patched:
            patched.setattr(tr, "fit", recording)
            results = tr.progressive_fit(shapes, datasets.__getitem__, config, 2,
                                         channels=(2, 4))
        # carried tensors must be byte-for-byte the previous level's best,
        # re-keyed past the three stem layers
        assert len(inits) == len(ladder)
        for prev, init in zip(results, inits[1:]):
            for name, tensor in prev.best_weights.items():
                layer = int(name.split(".")[0][1:])
                carried = init[f"L{layer + 3}.{name.split('.')[1]}"]
                assert np.array_equal(tensor, carried), name

        ladder_auc = _final_auc(results[-1].spec, results[-1].best_weights,
                                datasets["A6"][1])

        base_spec = nn.base_model((1, 32, 32, 32), 2, channels=(2, 4))
        base_best, _ = tr.fit(base_spec, nn.init_weights(base_spec,
                                                         seed=config.seed),
                              datasets["A6"][0], datasets["A6"][1], config)
        base_auc = _final_auc(base_spec, base_best, datasets["A6"][1])
        print(f"ladder AUC {ladder_auc:.4f} vs baseline {base_auc:.4f}")
        assert ladder_auc >= base_auc


# ------------------------------------------------------------ criterion 10

TRAIN_CFG = """\
protocol = binary
seed = 5
patch.levels = P1,P2
model.channels = 2,4
augment.enabled = false
train.lr0 = 0.001
train.max_epochs = 2
train.patience = 1
train.batch_size = 8
train.val_fraction = 0.25
"""


def test_c10_cli_byte_determinism(tmp_path):
    with criterion(10, "segment/patch/train/eval rerun byte-identical", 120):
        scans = tmp_path / "scans"
        scans.mkdir()
        vessel_sets = [(), ((32, 40, 26),), ((30, 38, 24), (34, 42, 28)),
                       ((28, 40, 22), (32, 44, 28))]
        rows = []
        for i, vessels in enumerate(vessel_sets):
            hu, _ = lung_phantom(shape=(64, 140, 52),
                                 lung_semi_axes=(22, 26, 17),
                                 vessel_centers=vessels)
            path = scans / f"scan{i}.nii.gz"
            path.write_bytes(write_nifti(hu, gzipped=True))
            rows.append(f"{path},{'NOR' if i < 2 else 'MiNCP'}")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join(rows) + "\n")
        seg_cfg = tmp_path / "seg.cfg"
        seg_cfg.write_text("seed = 3\nseg.erode_radius = 1.0\n"
                           "seg.close_radius = 2.0\n")

        masks = [tmp_path / f"masks{i}" for i in (0, 1)]
        for out in masks:
            assert cli.main(["segment", "--manifest", str(manifest),
                             "--config", str(seg_cfg), "--out", str(out)]) == 0
        for name in sorted(p.name for p in masks[0].iterdir()):
            assert (masks[0] / name).read_bytes() == \
                (masks[1] / name).read_bytes(), name

        packs = [tmp_path / f"packs{i}" for i in (0, 1)]
        for out in packs:
            assert cli.main(["patch", "--manifest", str(manifest),
                             "--config", str(seg_cfg),
                             "--masks", str(masks[0]), "--level", "P2",
                             "--out", str(out)]) == 0
        assert (packs[0] / "P2.pack").read_bytes() == \
            (packs[1] / "P2.pack").read_bytes()
        _, samples = read_pack((packs[0] / "P2.pack").read_bytes())
        assert len(samples) == 4 * 32

        blob_packs = tmp_path / "blobpacks"
        blob_packs.mkdir()
        (blob_packs / "P1.pack").write_bytes(write_pack(
            "P1", blob_dataset(16, seed=1, shape=(16, 16, 9), level="P1")))
        (blob_packs / "P2.pack").write_bytes(write_pack(
            "P2", blob_dataset(16, seed=2, shape=(32, 32, 12), level="P2")))
        train_cfg = tmp_path / "train.cfg"
        train_cfg.write_text(TRAIN_CFG)
        runs = [tmp_path / f"run{i}" for i in (0, 1)]
        for out in runs:
            assert cli.main(["train", "--config", str(train_cfg),
                             "--packs", str(blob_packs), "--out", str(out)]) == 0
        for name in ("history.csv", "checkpoint_final.ctck"):
            assert (runs[0] / name).read_bytes() == \
                (runs[1] / name).read_bytes(), name

        evals = [tmp_path / f"eval{i}" for i in (0, 1)]
        for out in evals:
            assert cli.main(["eval", "--checkpoint",
                             str(runs[0] / "checkpoint_final.ctck"),
                             "--manifest", str(manifest),
                             "--config", str(seg_cfg),
                             "--masks", str(masks[0]), "--out", str(out)]) == 0
        names = sorted(p.name for p in evals[0].iterdir())
        assert names == ["effective.cfg", "report.csv", "roc.csv"]
        for name in names:
            assert (evals[0] / name).read_bytes() == \
                (evals[1] / name).read_bytes(), name


# ------------------------------------------------------------ criterion 11

def test_c11_nifti_round_trip_all_datatypes():
    with criterion(11, "NIfTI write/read bit-exact, plain and gzip", 5):
        rng = np.random.default_rng(31)
        shape = (7, 6, 5)
        for code, (char, _) in sorted(DATATYPES.items()):
            dt = np.dtype(char)
            if dt.kind == "f":
                arr = rng.standard_normal(shape).astype(dt)
            else:
                info = np.iinfo(dt)
                arr = rng.integers(info.min, info.max, size=shape,
                                   endpoint=True).astype(dt)
            for gz in (False, True):
                blob = write_nifti(arr, spacing=(1.5, 0.7, 2.0), gzipped=gz)
                header, back = read_raw(blob)
                assert back.dtype == dt
                assert np.array_equal(back, arr), (code, gz)
                assert np.allclose(header.spacing, (1.5, 0.7, 2.0))
                # a second serialization of the same array is byte-identical
                assert write_nifti(arr, spacing=(1.5, 0.7, 2.0),
                                   gzipped=gz) == blob
