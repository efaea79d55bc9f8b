import csv
import io
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctscreen import cli, nifti_io, nn_core
from ctscreen.phantoms import lung_phantom
from ctscreen.segmentation import Mask, segment_lung

from synth import blob_dataset

CFG_TEXT = """\
# small phantoms need gentler morphology than clinical scans
protocol = binary
seed = 7
seg.erode_radius = 1.0
seg.close_radius = 2.0
"""


# ---------------------------------------------------------------- fixture

@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Four phantom scans (2 NOR, 2 MiNCP), manifest, config, masks."""
    root = tmp_path_factory.mktemp("ws")
    scans = root / "scans"
    scans.mkdir()
    vessel_sets = [(), ((32, 40, 26),), ((30, 38, 24), (34, 42, 28)),
                   ((28, 40, 22), (32, 44, 28), (34, 38, 25))]
    labels = ["NOR", "NOR", "MiNCP", "MiNCP"]
    rows = []
    for i, (vessels, label) in enumerate(zip(vessel_sets, labels)):
        vol, _ = lung_phantom(shape=(64, 140, 52), lung_semi_axes=(22, 26, 17),
                              vessel_centers=vessels, source_id=f"scan{i}")
        path = scans / f"scan{i}.nii.gz"
        nifti_io.write_nifti(vol.voxels.astype(np.float32), spacing=vol.spacing,
                             gzipped=True, path=str(path))
        rows.append(f"{path},{label}")
    manifest = root / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n")
    config = root / "run.cfg"
    config.write_text(CFG_TEXT)

    masks = root / "masks"
    rc = cli.main(["segment", "--manifest", str(manifest),
                   "--config", str(config), "--out", str(masks)])
    assert rc == 0
    return {"root": root, "manifest": manifest, "config": config,
            "masks": masks, "scan_paths": [r.split(",")[0] for r in rows]}


# ---------------------------------------------------------------- manifest

def test_manifest_round_trip(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("a.nii,NOR\nb.nii,CrNCP,3\n\n")
    rows = cli.load_manifest(str(p))
    assert [(r.path, r.label, r.fold) for r in rows] == [
        ("a.nii", "NOR", None), ("b.nii", "CrNCP", 3)]


def test_manifest_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("a.nii,NOR\nb.nii,BAD\n")
    with pytest.raises(cli.ManifestError, match="line 2.*BAD"):
        cli.load_manifest(str(p))
    p.write_text("a.nii,NOR\na.nii,MiNCP\n")
    with pytest.raises(cli.ManifestError, match="duplicate"):
        cli.load_manifest(str(p))
    p.write_text("a.nii,NOR,x\n")
    with pytest.raises(cli.ManifestError, match="fold"):
        cli.load_manifest(str(p))
    p.write_text("")
    with pytest.raises(cli.ManifestError, match="empty"):
        cli.load_manifest(str(p))


def test_class_label_maps():
    rows = [cli.ManifestRow(f"{l}.nii", l) for l in cli.LABELS]
    binary = cli.class_labels(rows, "binary")
    assert binary.tolist() == [0, 1, 1, 1, 1]
    multi = cli.class_labels(rows, "multiclass")
    # the two-sample critical grade folds into severe
    assert multi.tolist() == [0, 1, 2, 3, 3]


# ------------------------------------------------------------------ config

def test_config_round_trip_and_reseed(tmp_path):
    default = cli.load_config()
    assert default == cli.RunConfig()
    assert cli.parse_config(cli.dump_config(default)) == default
    p = tmp_path / "c.cfg"
    p.write_text(CFG_TEXT)
    cfg = cli.load_config(str(p), seed=9)
    assert cfg.seed == 9
    assert cfg.train.seed == 9
    assert cfg.policy.seed == 9
    assert cfg.train.augment is cfg.policy
    assert cfg.seg.erode_radius == 1.0


def test_readme_config_defaults_match_dump():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"Defaults:\n\n```\n(.*?)```", readme, re.S).group(1)
    assert block == cli.dump_config(cli.load_config())


def test_config_errors_name_line_and_key():
    with pytest.raises(cli.ConfigError, match="line 2.*train.lr'"):
        cli.parse_config("seed = 1\ntrain.lr = 0.1\n")
    with pytest.raises(cli.ConfigError, match="line 3.*duplicate"):
        cli.parse_config("seed = 1\n# fine\nseed = 2\n")
    with pytest.raises(cli.ConfigError, match="line 1.*bad value"):
        cli.parse_config("seg.keep_k = two\n")
    with pytest.raises(cli.ConfigError, match="line 1.*key = value"):
        cli.parse_config("just words\n")
    with pytest.raises(cli.ConfigError, match="protocol"):
        cli.parse_config("protocol = ternary\n")


# ------------------------------------------------------------- patch packs

def test_pack_round_trip_exact():
    samples = blob_dataset(6, seed=3, shape=(8, 8, 4), level="T1")
    blob = cli.write_pack("T1", samples)
    level, back = cli.read_pack(blob)
    assert level == "T1"
    assert len(back) == 6
    for a, b in zip(samples, back):
        assert np.array_equal(a.tensor.astype(np.float32), b.tensor)
        assert (a.label, a.source_id, a.level) == (b.label, b.source_id, b.level)
        assert tuple(a.origin) == tuple(b.origin)


def test_pack_rejects_garbage():
    with pytest.raises(ValueError, match="not a patch pack"):
        cli.read_pack(b"nope" + b"\x00" * 40)
    samples = blob_dataset(2, seed=0, shape=(6, 6, 4), level="T1")
    blob = cli.write_pack("T1", samples)
    with pytest.raises(ValueError, match="trailing"):
        cli.read_pack(blob + b"\x00")
    with pytest.raises(ValueError, match="empty"):
        cli.write_pack("T1", [])
    mixed = samples + blob_dataset(1, seed=1, shape=(8, 8, 4), level="T1")
    with pytest.raises(ValueError, match="one shape"):
        cli.write_pack("T1", mixed)


def test_outputs_honour_the_umask(tmp_path):
    samples = blob_dataset(2, seed=0, shape=(4, 4, 2), level="T1")
    old = os.umask(0o027)
    try:
        cli.write_pack("T1", samples, str(tmp_path / "T1.pack"))
    finally:
        os.umask(old)
    assert (tmp_path / "T1.pack").stat().st_mode & 0o777 == 0o666 & ~0o027


def _small_checkpoint():
    spec = nn_core.base_model((1, 4, 8, 8), 2, channels=(2,))
    return spec, nn_core.init_weights(spec, seed=0)


def _containers():
    ckpt = nn_core.save_checkpoint(*_small_checkpoint())
    pack = cli.write_pack("T1", blob_dataset(2, seed=0, shape=(4, 4, 2),
                                             level="T1"))
    return {"pack": (pack, cli.read_pack),
            "checkpoint": (ckpt, nn_core.load_checkpoint)}


CONTAINERS = _containers()


@pytest.mark.parametrize("fmt", sorted(CONTAINERS))
def test_container_every_prefix_raises_value_error(fmt):
    blob, read = CONTAINERS[fmt]
    read(blob)
    for n in range(len(blob)):
        with pytest.raises(ValueError):
            read(blob[:n])


@pytest.mark.parametrize("fmt", sorted(CONTAINERS))
@settings(derandomize=True, max_examples=60, deadline=None)
@given(flips=st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(1, 255)),
                      min_size=1, max_size=6))
def test_container_flipped_bytes_load_or_raise_value_error(fmt, flips):
    blob, read = CONTAINERS[fmt]
    bad = bytearray(blob)
    for pos, xor in flips:
        bad[pos % len(bad)] ^= xor
    try:
        read(bytes(bad))
    except ValueError:
        pass


# ----------------------------------------------------------------- segment

def test_segment_outputs_and_determinism(workspace, tmp_path):
    masks = workspace["masks"]
    names = sorted(os.listdir(masks))
    assert "summary.csv" in names and "effective.cfg" in names
    mask_files = [n for n in names if n.endswith("_mask.nii.gz")]
    assert len(mask_files) == 4

    rows = list(csv.reader((masks / "summary.csv").open()))
    assert rows[0] == ["source_id", "lung_voxels", "components"]
    assert len(rows) == 5
    assert all(int(r[1]) > 0 for r in rows[1:])

    again = tmp_path / "masks2"
    rc = cli.main(["segment", "--manifest", str(workspace["manifest"]),
                   "--config", str(workspace["config"]), "--out", str(again)])
    assert rc == 0
    for name in mask_files + ["summary.csv"]:
        assert (masks / name).read_bytes() == (again / name).read_bytes()


def test_segment_keeps_going_past_bad_file(workspace, tmp_path, capsys):
    bad = tmp_path / "broken.nii.gz"
    bad.write_bytes(b"this is not a scan")
    manifest = tmp_path / "m.csv"
    manifest.write_text(f"{workspace['scan_paths'][0]},NOR\n{bad},MiNCP\n")
    out = tmp_path / "masks"
    rc = cli.main(["segment", "--manifest", str(manifest),
                   "--config", str(workspace["config"]), "--out", str(out)])
    assert rc == 1
    assert "broken.nii.gz" in capsys.readouterr().err
    assert (out / "scan0_mask.nii.gz").exists()
    rows = list(csv.reader((out / "summary.csv").open()))
    assert len(rows) == 2  # header plus the one scan that worked


# ------------------------------------------------------------------- patch

def test_patch_count_law_and_determinism(workspace, tmp_path):
    out1, out2 = tmp_path / "p1", tmp_path / "p2"
    base = ["patch", "--manifest", str(workspace["manifest"]),
            "--config", str(workspace["config"]),
            "--masks", str(workspace["masks"]), "--level", "P1"]
    assert cli.main(base + ["--out", str(out1)]) == 0
    assert cli.main(base + ["--out", str(out2), "--jobs", "2"]) == 0
    blob1 = (out1 / "P1.pack").read_bytes()
    assert blob1 == (out2 / "P1.pack").read_bytes()

    level, samples = cli.read_pack(blob1)
    assert level == "P1"
    assert len(samples) == 4 * 64
    assert all(s.tensor.shape == (16, 16, 9) for s in samples)
    counts = np.bincount([s.label for s in samples], minlength=2)
    assert counts.tolist() == [2 * 64, 2 * 64]  # 2 NOR + 2 NCP scans

    index = list(csv.reader((out1 / "P1_index.csv").open()))
    assert len(index) == 1 + 4 * 64
    assert index[0][:3] == ["row", "source_id", "label"]


def test_patch_missing_mask_fails_loud(workspace, tmp_path, capsys):
    empty = tmp_path / "nomasks"
    empty.mkdir()
    rc = cli.main(["patch", "--manifest", str(workspace["manifest"]),
                   "--config", str(workspace["config"]),
                   "--masks", str(empty), "--level", "P1",
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "no mask at" in capsys.readouterr().err


def test_patch_packs_past_an_empty_mask(workspace, tmp_path, capsys):
    masks = tmp_path / "masks"
    masks.mkdir()
    for path in workspace["scan_paths"]:
        name = cli.mask_name(path)
        (masks / name).write_bytes((workspace["masks"] / name).read_bytes())
    volume = nifti_io.read_volume(workspace["scan_paths"][1])
    empty = Mask(np.zeros(volume.shape, dtype=bool))
    nifti_io.write_mask(empty, volume, gzipped=True,
                        path=str(masks / cli.mask_name(workspace["scan_paths"][1])))
    out = tmp_path / "out"
    rc = cli.main(["patch", "--manifest", str(workspace["manifest"]),
                   "--config", str(workspace["config"]),
                   "--masks", str(masks), "--level", "P1", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {workspace['scan_paths'][1]}: empty mask for scan\n"
    _, samples = cli.read_pack(str(out / "P1.pack"))
    assert sorted({s.source_id for s in samples}) == ["scan0", "scan2", "scan3"]
    assert len(samples) == 3 * 64


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_usage_error(workspace, tmp_path, capsys, jobs):
    out = tmp_path / "masks"
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["segment", "--manifest", str(workspace["manifest"]),
                  "--jobs", jobs, "--out", str(out)])
    assert exit_info.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


def test_patch_unknown_level_exits_2(workspace, tmp_path, capsys):
    rc = cli.main(["patch", "--manifest", str(workspace["manifest"]),
                   "--masks", str(workspace["masks"]), "--level", "P9",
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "P9" in capsys.readouterr().err


# ------------------------------------------------------------------- train

TRAIN_CFG = """\
protocol = binary
seed = 5
patch.levels = T1,T2
model.channels = 2,4
augment.enabled = false
train.lr0 = 0.001
train.max_epochs = 2
train.patience = 1
train.batch_size = 8
train.val_fraction = 0.25
"""


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("train")
    packs = root / "packs"
    packs.mkdir()
    cli.write_pack("T1", blob_dataset(16, seed=1, shape=(8, 8, 4), level="T1"),
                   str(packs / "T1.pack"))
    cli.write_pack("T2", blob_dataset(16, seed=2, shape=(12, 12, 6), level="T2"),
                   str(packs / "T2.pack"))
    cfg = root / "train.cfg"
    cfg.write_text(TRAIN_CFG)
    out = root / "run"
    rc = cli.main(["train", "--config", str(cfg), "--packs", str(packs),
                   "--out", str(out)])
    assert rc == 0
    return {"root": root, "packs": packs, "cfg": cfg, "out": out}


def test_train_artifacts(trained, capsys):
    out = trained["out"]
    for name in ("checkpoint_T1.ctck", "checkpoint_T2.ctck",
                 "checkpoint_final.ctck", "history.csv", "effective.cfg"):
        assert (out / name).exists()
    # final checkpoint is the last ladder level
    assert (out / "checkpoint_final.ctck").read_bytes() == \
        (out / "checkpoint_T2.ctck").read_bytes()
    rows = list(csv.reader((out / "history.csv").open()))
    assert rows[0][:2] == ["level", "epoch"]
    assert [r[0] for r in rows[1:]] == ["T1", "T1", "T2", "T2"]
    # checkpoints load back and declare the ladder input shapes
    spec, _ = nn_core.load_checkpoint(str(out / "checkpoint_T1.ctck"))
    assert spec.input_shape == (1, 4, 8, 8)
    spec, _ = nn_core.load_checkpoint(str(out / "checkpoint_final.ctck"))
    assert spec.input_shape == (1, 6, 12, 12)
    cfg = cli.load_config(str(out / "effective.cfg"))
    assert cfg.levels == ("T1", "T2")


def test_train_deterministic_rerun(trained, tmp_path):
    out2 = tmp_path / "rerun"
    rc = cli.main(["train", "--config", str(trained["cfg"]),
                   "--packs", str(trained["packs"]), "--out", str(out2)])
    assert rc == 0
    for name in ("history.csv", "checkpoint_final.ctck", "effective.cfg"):
        assert (trained["out"] / name).read_bytes() == (out2 / name).read_bytes()


def test_train_missing_pack_exits_2(trained, tmp_path, capsys):
    rc = cli.main(["train", "--config", str(trained["cfg"]),
                   "--packs", str(tmp_path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "missing pack" in capsys.readouterr().err


def test_train_bad_pack_exits_2(trained, tmp_path, capsys):
    cut = trained["packs"].joinpath("T1.pack").read_bytes()[:7]
    t2 = trained["packs"].joinpath("T2.pack").read_bytes()
    samples = blob_dataset(16, seed=1, shape=(8, 8, 4), level="T1")
    for smp in samples[::4]:
        smp.label = 5  # enough of them to split, outside the binary protocol
    for name, blob, says in (
            ("cut", cut, "bad pack"),
            ("text", b"plain text, not a pack\n", "bad pack"),
            ("label", cli.write_pack("T1", samples), "label 5 outside")):
        packs = tmp_path / name
        packs.mkdir()
        (packs / "T1.pack").write_bytes(blob)
        (packs / "T2.pack").write_bytes(t2)
        rc = cli.main(["train", "--config", str(trained["cfg"]),
                       "--packs", str(packs), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert says in err and err.count("\n") == 1

    # a P2 pack must hold P2-shaped patches
    packs = tmp_path / "shape"
    packs.mkdir()
    cli.write_pack("P2", blob_dataset(16, seed=1, shape=(16, 16, 9), level="P2"),
                   str(packs / "P2.pack"))
    cfg = tmp_path / "p2.cfg"
    cfg.write_text(TRAIN_CFG.replace("T1,T2", "P2"))
    rc = cli.main(["train", "--config", str(cfg), "--packs", str(packs),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == (f"error: {packs / 'P2.pack'} holds (16, 16, 9) patches, "
                   f"level P2 needs (32, 32, 12)\n")


def test_train_non_finite_loss_exits_1(tmp_path, capsys):
    packs = tmp_path / "packs"
    packs.mkdir()
    samples = blob_dataset(16, seed=1, shape=(8, 8, 4), level="T1")
    for smp in samples:
        smp.tensor[0, 0, 0] = np.nan
    cli.write_pack("T1", samples, str(packs / "T1.pack"))
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TRAIN_CFG.replace("T1,T2", "T1"))
    rc = cli.main(["train", "--config", str(cfg), "--packs", str(packs),
                   "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: training loss is nan at epoch 0, batch 0\n"
    assert not (tmp_path / "run" / "history.csv").exists()


def test_train_bad_config_key_exits_2(trained, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    bad_values = [("train.val_fraction", v) for v in ("0", "nan", "-0.5", "2")]
    bad_values += [("model.channels", "0"), ("model.channels", "2,-1"),
                   ("augment.elastic_grid", "4,4"),
                   ("augment.elastic_grid", "4,4,2,2")]
    cases = [("train.lr = 0.1\n", "train.lr", False),
             (TRAIN_CFG.replace("T1,T2", "T2,T1"), "grow monotonically", True)]
    for key, value in bad_values:
        kept = [line for line in TRAIN_CFG.splitlines() if not line.startswith(key)]
        cases.append(("\n".join(kept + [f"{key} = {value}"]) + "\n",
                      key.split(".")[1], False))
    for i, (text, says, writes) in enumerate(cases):
        cfg.write_text(text)
        out = tmp_path / f"o{i}"
        rc = cli.main(["train", "--config", str(cfg),
                       "--packs", str(trained["packs"]), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert says in err and err.count("\n") == 1
        assert out.exists() == writes


# -------------------------------------------------------------------- eval

def test_eval_reports_and_determinism(workspace, trained, tmp_path):
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    base = ["eval", "--checkpoint", str(trained["out"] / "checkpoint_final.ctck"),
            "--manifest", str(workspace["manifest"]),
            "--config", str(workspace["config"]),
            "--masks", str(workspace["masks"]), "--folds", "2"]
    assert cli.main(base + ["--out", str(out1)]) == 0
    assert cli.main(base + ["--out", str(out2), "--jobs", "2"]) == 0
    names = ["fold0_report.csv", "fold0_roc.csv", "fold1_report.csv",
             "fold1_roc.csv", "aggregate.csv"]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    agg = {r[0]: r for r in csv.reader((out1 / "aggregate.csv").open())}
    assert "accuracy" in agg and "macro_auc" in agg
    rep = list(csv.reader((out1 / "fold0_report.csv").open()))
    assert rep[0][0] == "class"
    assert {r[0] for r in rep[1:]} == {"NOR", "NCP", "weighted"}
    roc = list(csv.reader((out1 / "fold0_roc.csv").open()))
    assert roc[0] == ["class", "fpr", "tpr"]


def test_eval_takes_the_classes_from_the_checkpoint(workspace, tmp_path):
    spec = nn_core.base_model((1, 4, 8, 8), 4, channels=(2,))
    ck = tmp_path / "four.ctck"
    nn_core.save_checkpoint(spec, nn_core.init_weights(spec, seed=0), str(ck))
    out = tmp_path / "e"
    # the workspace config says binary; the checkpoint has four classes
    rc = cli.main(["eval", "--checkpoint", str(ck),
                   "--manifest", str(workspace["manifest"]),
                   "--config", str(workspace["config"]),
                   "--masks", str(workspace["masks"]), "--folds", "2",
                   "--out", str(out)])
    assert rc == 0
    rep = list(csv.reader((out / "fold0_report.csv").open()))
    assert [r[0] for r in rep[1:]] == ["NOR", "MiNCP", "MoNCP", "SeNCP", "weighted"]
    # the two MiNCP scans stay MiNCP rather than folding into NCP
    assert [int(r[1]) for r in rep[1:]] == [1, 1, 0, 0, 2]
    assert cli.load_config(str(out / "effective.cfg")).protocol == "multiclass"


def test_eval_partial_fold_override_rejected(workspace, trained, tmp_path,
                                             capsys):
    manifest = tmp_path / "m.csv"
    paths = workspace["scan_paths"]
    manifest.write_text(f"{paths[0]},NOR,0\n{paths[2]},MiNCP\n")
    rc = cli.main(["eval", "--checkpoint",
                   str(trained["out"] / "checkpoint_final.ctck"),
                   "--manifest", str(manifest), "--folds", "2",
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "fold" in capsys.readouterr().err


@pytest.mark.parametrize("folds, says", [("5", "class 0 has 2 samples for 5 folds"),
                                         ("1", "--folds must be at least 2")],
                         ids=["folds5", "folds1"])
def test_eval_bad_fold_count_exits_2(workspace, trained, tmp_path, capsys,
                                     folds, says):
    # two scans per class: five folds cannot all hold each class
    out = tmp_path / "o"
    rc = cli.main(["eval", "--checkpoint",
                   str(trained["out"] / "checkpoint_final.ctck"),
                   "--manifest", str(workspace["manifest"]),
                   "--config", str(workspace["config"]),
                   "--masks", str(workspace["masks"]), "--folds", folds,
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert says in err and err.count("\n") == 1
    assert not out.exists()


def test_eval_empty_override_fold_exits_2(workspace, trained, tmp_path, capsys):
    manifest = tmp_path / "m.csv"
    labels = ["NOR", "NOR", "MiNCP", "MiNCP"]
    manifest.write_text("".join(f"{path},{label},{i % 2}\n" for i, (path, label)
                                in enumerate(zip(workspace["scan_paths"], labels))))
    out = tmp_path / "o"
    rc = cli.main(["eval", "--checkpoint",
                   str(trained["out"] / "checkpoint_final.ctck"),
                   "--manifest", str(manifest),
                   "--config", str(workspace["config"]),
                   "--masks", str(workspace["masks"]), "--folds", "3",
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "fold 2 with no scans" in err and err.count("\n") == 1
    assert not out.exists()


# ----------------------------------------------------------------- predict

def _threshold_checkpoint(workspace, path):
    """Fixture model: passthrough conv, GAP brightness readout, biased so
    the healthy phantom lands on the NOR side with margin."""
    spec = nn_core.base_model((1, 4, 8, 8), 2, channels=(2,))
    weights = nn_core.init_weights(spec, seed=0)
    kernel = np.zeros_like(weights["L0.kernel"])
    kernel[0, 0, 1, 1, 1] = 1.0
    weights["L0.kernel"] = kernel
    weights["L0.bias"] = np.zeros_like(weights["L0.bias"])
    w5 = np.zeros_like(weights["L5.weight"])
    w5[0, 0] = 1.0  # unit 0 reads channel-0 brightness
    weights["L5.weight"] = w5
    weights["L5.bias"] = np.zeros_like(weights["L5.bias"])

    # probe the brightness feature of the healthy scan through the real path
    cfg = cli.load_config(str(workspace["config"]))
    vol = nifti_io.read_volume(workspace["scan_paths"][0])
    std = cli.standardize_volume(vol, segment_lung(vol, cfg.seg))
    probe = dict(weights)
    w7 = np.zeros_like(weights["L7.weight"])
    w7[0, 0] = 1.0  # class-0 logit = unit 0, regardless of orientation
    probe["L7.weight"] = w7
    probe["L7.bias"] = np.zeros_like(weights["L7.bias"])
    p = nn_core.model_forward(spec, probe, cli._model_input(std, spec))[0]
    f = float(np.log(p[0] / p[1]))

    gain, margin = 50.0, 0.2
    tau = 2.0 * f + margin
    w7 = np.zeros_like(weights["L7.weight"])
    b7 = np.zeros_like(weights["L7.bias"])
    if w7.shape[0] == 2:
        w7[0, 0], w7[1, 0] = -gain, gain
    else:
        w7[0, 0], w7[0, 1] = -gain, gain
    b7[0] = gain * tau
    weights["L7.weight"] = w7
    weights["L7.bias"] = b7
    nn_core.save_checkpoint(spec, weights, str(path))


def test_predict_fixture_healthy_scan(workspace, tmp_path, capsys):
    ck = tmp_path / "fixture.ctck"
    _threshold_checkpoint(workspace, ck)
    args = ["predict", workspace["scan_paths"][0], "--checkpoint", str(ck),
            "--config", str(workspace["config"])]
    assert cli.main(args) == 0
    out1 = capsys.readouterr().out
    lines = out1.strip().splitlines()
    assert lines[-1] == "label: NOR"
    probs = {name: float(v) for name, v in
             (line.split() for line in lines[:-1])}
    assert probs["NOR"] > 0.5
    assert abs(sum(probs.values()) - 1.0) < 1e-6

    assert cli.main(args) == 0
    assert capsys.readouterr().out == out1


def test_predict_bad_checkpoint_exits_2(workspace, tmp_path, capsys):
    spec, weights = _small_checkpoint()
    good = nn_core.save_checkpoint(spec, weights)
    kernel = weights["L0.kernel"]
    weights["L0.kernel"] = kernel.reshape((1, 2) + kernel.shape[2:])
    reshaped = nn_core.save_checkpoint(spec, weights)
    # a head of three units under a two-class spec
    layers = spec.layers[:-2] + (nn_core.LayerSpec("dense", units=3),
                                 nn_core.LayerSpec("softmax"))
    wide = nn_core.ModelSpec(spec.input_shape, layers, 2)
    wide_head = nn_core.save_checkpoint(wide, nn_core.init_weights(wide))
    junk = tmp_path / "junk.ctck"
    for blob in (b"not a checkpoint at all", good[:7], good + b"\0\0", reshaped,
                 wide_head):
        junk.write_bytes(blob)
        rc = cli.main(["predict", workspace["scan_paths"][0],
                       "--checkpoint", str(junk)])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: bad checkpoint") and err.count("\n") == 1


def test_predict_checkpoint_without_a_protocol_exits_2(workspace, tmp_path,
                                                       capsys):
    spec = nn_core.base_model((1, 4, 8, 8), 3, channels=(2,))
    ck = tmp_path / "three.ctck"
    nn_core.save_checkpoint(spec, nn_core.init_weights(spec, seed=0), str(ck))
    rc = cli.main(["predict", workspace["scan_paths"][0], "--checkpoint", str(ck)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: checkpoint has 3 classes; no protocol has that many\n"


def test_non_finite_probabilities_fail_the_scan(workspace, tmp_path, capsys):
    spec, weights = _small_checkpoint()
    weights["L0.kernel"][:] = np.nan
    ck = tmp_path / "nan.ctck"
    nn_core.save_checkpoint(spec, weights, str(ck))
    scan = workspace["scan_paths"][0]
    rc = cli.main(["predict", scan, "--checkpoint", str(ck),
                   "--config", str(workspace["config"])])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {scan}: checkpoint produced non-finite probabilities\n"

    rc = cli.main(["eval", "--checkpoint", str(ck),
                   "--manifest", str(workspace["manifest"]),
                   "--config", str(workspace["config"]),
                   "--masks", str(workspace["masks"]), "--folds", "2",
                   "--out", str(tmp_path / "e")])
    assert rc == 1
    err = capsys.readouterr().err
    for path in workspace["scan_paths"]:
        assert f"error: {path}: checkpoint produced non-finite" in err
