import csv
import dataclasses
import gzip
import math
import os
import re
import shlex
import struct
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctscreen import cli, metrics, nifti_io, nn_core, parallel
from ctscreen.config import ConfigError, RunConfig, dump_config, parse_config
from ctscreen.augment import AugmentPolicy, transform_menu
from ctscreen.packs import index_records, pack_index_csv, read_pack, write_pack
from ctscreen.patch_sampler import STANDARD_SHAPE, extract_patches, standardize_volume
from ctscreen.phantoms import lung_phantom
from ctscreen.segmentation import segment_lung
from ctscreen.train import TrainConfig, fit

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
        hu, _ = lung_phantom(shape=(64, 140, 52), lung_semi_axes=(22, 26, 17),
                             vessel_centers=vessels)
        path = scans / f"scan{i}.nii.gz"
        path.write_bytes(nifti_io.write_nifti(hu, gzipped=True))
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
    p.write_text("a.nii,NOR\nb.nii,CrNCP\n\n")
    rows = cli.load_manifest(str(p))
    assert [(r.path, r.label) for r in rows] == [("a.nii", "NOR"), ("b.nii", "CrNCP")]


def test_manifest_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("a.nii,NOR\nb.nii,BAD\n")
    with pytest.raises(ConfigError, match="line 2.*BAD"):
        cli.load_manifest(str(p))
    p.write_text("a.nii,NOR\na.nii,MiNCP\n")
    with pytest.raises(ConfigError, match="duplicate"):
        cli.load_manifest(str(p))
    # a third column is an error: ignoring it would hide a fold someone meant to pin
    for row in ("b.nii,NOR,0", "b.nii,NOR,x", "b.nii,NOR,", "b.nii"):
        p.write_text(f"a.nii,NOR\n{row}\n")
        with pytest.raises(ConfigError, match="line 2: expected path,label$"):
            cli.load_manifest(str(p))
    p.write_text("")
    with pytest.raises(ConfigError, match="empty"):
        cli.load_manifest(str(p))


def test_manifest_rejects_two_scans_with_one_source_id(tmp_path, capsys):
    # both would write masks/x_mask.nii.gz
    manifest = tmp_path / "m.csv"
    manifest.write_text("d1/x.nii.gz,NOR\nd2/x.nii,MiNCP\n")
    out = tmp_path / "masks"
    rc = cli.main(["segment", "--manifest", str(manifest), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {manifest} line 2: duplicate source_id 'x' of 'd2/x.nii', "
        f"first at line 1\n")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--manifest", "--config"])
def test_segment_file_not_utf8_exits_2(workspace, tmp_path, capsys, flag):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"# caf\xe9\n")
    manifest = bad if flag == "--manifest" else workspace["manifest"]
    config = bad if flag == "--config" else workspace["config"]
    out = tmp_path / "masks"
    rc = cli.main(["segment", "--manifest", str(manifest), "--config", str(config),
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {bad}: not UTF-8")
    assert not out.exists()


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
    assert default == RunConfig()
    assert parse_config(dump_config(default)) == default
    p = tmp_path / "c.cfg"
    p.write_text(CFG_TEXT)
    cfg = dataclasses.replace(cli.load_config(str(p)), seed=9)
    assert cfg.seed == 9
    assert cfg.train.seed == 9
    assert cfg.train.augment is cfg.policy
    assert cfg.seg.erode_radius == 1.0


def test_readme_config_defaults_match_dump():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"Defaults:\n\n```\n(.*?)```", readme, re.S).group(1)
    assert block == dump_config(cli.load_config())


def test_readme_quickstart_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quickstart = readme.split("## Quickstart", 1)[1]
    block = re.search(r"```bash\n(.*?)```", quickstart, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    script = re.search(r"python3 - <<'EOF'\n(.*?)EOF\n", block, re.S).group(1)
    exec(compile(script, "README quickstart", "exec"), {})
    for name, text in re.findall(r"cat > (\S+) <<'EOF'\n(.*?)EOF\n", block, re.S):
        Path(name).write_text(text)
    commands = [shlex.split(line) for line in
                block.replace("\\\n", " ").splitlines()
                if line.startswith("ctscreen ")]
    assert [argv[1] for argv in commands] == [
        "segment", "patch", "patch", "train", "eval", "predict"]
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
    scans = [f"scan{i}" for i in range(4)]
    artifacts = ([f"masks/{s}_mask.nii.gz" for s in scans] + ["masks/summary.csv"]
                 + [f"packs/{level}{suffix}" for level in ("P1", "P2")
                    for suffix in (".pack", "_index.csv")]
                 + [f"run/checkpoint_{level}.ctck" for level in ("P1", "P2", "final")]
                 + ["run/history.csv"]
                 + ["evalout/report.csv", "evalout/roc.csv"]
                 + [f"{out}/effective.cfg" for out in ("masks", "packs", "run",
                                                       "evalout")])
    for name in artifacts:
        assert (tmp_path / name).is_file(), name
    assert sorted(os.listdir(tmp_path / "evalout")) == [
        "effective.cfg", "report.csv", "roc.csv"]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[-7:]] == [
        "accuracy:", "weighted_precision:", "weighted_f1:", "macro_auc:",
        "NOR", "NCP", "label:"]


def test_readme_flag_table_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = re.search(r"\| command +\| flags +\|\n\|[-|]+\|\n((?:\|.*\n)+)",
                      readme).group(1)
    documented = {}
    for line in table.splitlines():
        command, flags = (cell.strip() for cell in line.strip("|").split("|"))
        documented[command.strip("`")] = sorted(re.findall(r"`(--[a-z-]+)`", flags))
    subs = next(a for a in cli.build_parser()._actions
                if isinstance(a, cli.argparse._SubParsersAction))
    registered = {command: sorted(opt for action in parser._actions
                                  for opt in action.option_strings
                                  if opt not in ("-h", "--help"))
                  for command, parser in subs.choices.items()}
    assert documented == registered


def test_readme_pyramid_table_matches_patch_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = re.search(r"\| level +\| patch shape +\| patches per scan +\|\n\|[-|]+\|\n"
                      r"((?:\|.*\n)+)", readme).group(1)
    documented = {}
    for line in table.splitlines():
        level, shape, count = (cell.strip() for cell in line.strip("|").split("|"))
        documented[level] = (tuple(int(n) for n in shape.split(" x ")),
                             int(count.split()[0]))
    assert documented == cli.PATCH_TABLE


def test_config_errors_name_line_and_key():
    with pytest.raises(ConfigError, match="line 2.*train.lr'"):
        parse_config("seed = 1\ntrain.lr = 0.1\n")
    with pytest.raises(ConfigError, match="line 3.*duplicate"):
        parse_config("seed = 1\n# fine\nseed = 2\n")
    with pytest.raises(ConfigError, match="line 1.*bad value"):
        parse_config("seg.keep_k = two\n")
    with pytest.raises(ConfigError, match="line 1.*key = value"):
        parse_config("just words\n")
    with pytest.raises(ConfigError, match="protocol"):
        parse_config("protocol = ternary\n")


# ------------------------------------------------------------- patch packs

def test_pack_round_trip_exact():
    samples = blob_dataset(6, seed=3, shape=(8, 8, 4), level="T1")
    level, back = read_pack(write_pack("T1", samples))
    assert level == "T1"
    assert len(back) == 6
    for a, b in zip(samples, back):
        assert np.array_equal(a.tensor.astype(np.float32), b.tensor)
        assert (a.label, a.source_id, a.level) == (b.label, b.source_id, b.level)
        assert tuple(a.origin) == tuple(b.origin)


def test_write_pack_peak_memory_is_about_one_pack(tmp_path):
    samples = blob_dataset(8, seed=4, shape=(64, 64, 20), level="T1")
    tracemalloc.start()
    try:
        blob = write_pack("T1", samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * len(blob)


def test_pack_records_are_read_only_views():
    # records cost nothing beside the pack's bytes, and augmenting or
    # training on them never writes through to those bytes
    blob = bytearray(write_pack("P2", blob_dataset(
        8, seed=5, shape=(32, 32, 12), level="P2")))
    before = bytes(blob)
    tracemalloc.start()
    try:
        _, samples = read_pack(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * len(blob)  # copies would be the whole pack again
    for smp in samples:
        assert not smp.tensor.flags.writeable
        assert np.shares_memory(smp.tensor, np.frombuffer(blob, np.uint8))
        with pytest.raises(ValueError, match="read-only"):
            smp.tensor[0, 0, 0] = 0.5
    policy = AugmentPolicy()
    for _, transform in transform_menu(policy):
        for i, smp in enumerate(samples):
            transform(smp.tensor, np.random.default_rng(i))
    cfg = TrainConfig(max_epochs=1, patience=0, batch_size=4, augment=policy)
    spec = nn_core.base_model((1, 12, 32, 32), 2, channels=(2,))
    fit(spec, nn_core.init_weights(spec, seed=0), samples, samples, cfg)
    assert bytes(blob) == before


def test_pack_rejects_garbage():
    with pytest.raises(ValueError, match="not a patch pack"):
        read_pack(b"nope" + b"\x00" * 40)
    samples = blob_dataset(2, seed=0, shape=(6, 6, 4), level="T1")
    blob = write_pack("T1", samples)
    with pytest.raises(ValueError, match="trailing"):
        read_pack(blob + b"\x00")
    with pytest.raises(ValueError, match="empty"):
        write_pack("T1", [])
    mixed = samples + blob_dataset(1, seed=1, shape=(8, 8, 4), level="T1")
    with pytest.raises(ValueError, match="one shape"):
        write_pack("T1", mixed)


def test_outputs_honour_the_umask(tmp_path):
    samples = blob_dataset(2, seed=0, shape=(4, 4, 2), level="T1")
    old = os.umask(0o027)
    try:
        cli._atomic_write(str(tmp_path / "T1.pack"), write_pack("T1", samples))
    finally:
        os.umask(old)
    assert (tmp_path / "T1.pack").stat().st_mode & 0o777 == 0o666 & ~0o027


def _small_checkpoint():
    spec = nn_core.base_model((1, 4, 8, 8), 2, channels=(2,))
    return spec, nn_core.init_weights(spec, seed=0)


def _containers():
    ckpt = nn_core.save_checkpoint(*_small_checkpoint())
    pack = write_pack("T1", blob_dataset(2, seed=0, shape=(4, 4, 2),
                                             level="T1"))
    raw = np.random.default_rng(0).integers(-1024, 400, size=(3, 4, 5),
                                            dtype=np.int16)
    return {"pack": (pack, read_pack),
            "checkpoint": (ckpt, nn_core.load_checkpoint),
            "nifti": (nifti_io.write_nifti(raw, spacing=(0.8, 0.8, 2.5)),
                      nifti_io.read_volume),
            "nifti_gz": (nifti_io.write_nifti(raw, spacing=(0.8, 0.8, 2.5),
                                              gzipped=True),
                         nifti_io.read_volume)}


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


@pytest.mark.parametrize("read", [read_pack, nn_core.load_checkpoint,
                                  nifti_io.read_raw, nifti_io.read_volume])
def test_decoders_take_bytes_not_paths(read, tmp_path):
    path = tmp_path / "file"
    path.write_bytes(CONTAINERS["nifti"][0])
    for src in (path, str(path)):
        with pytest.raises(TypeError):
            read(src)


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


RADIUS_CASES = [("seg.erode_radius", "inf", "erode_radius must be finite"),
                ("seg.close_radius", "nan", "close_radius must be finite"),
                # radii the chord count would make run for minutes
                ("seg.close_radius", "300", "close_radius 300.0 is above 16"),
                ("seg.erode_radius", "17", "erode_radius 17.0 is above 16")]


@pytest.mark.parametrize("key, value, text", RADIUS_CASES,
                         ids=[f"{key}-{value}" for key, value, _ in RADIUS_CASES])
def test_segment_non_finite_radius_exits_2(workspace, tmp_path, capsys, key, value, text):
    cfg = tmp_path / "bad.cfg"
    kept = [line for line in CFG_TEXT.splitlines() if not line.startswith(key)]
    cfg.write_text("\n".join(kept + [f"{key} = {value}"]) + "\n")
    out = tmp_path / "masks"
    rc = cli.main(["segment", "--manifest", str(workspace["manifest"]),
                   "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert text in err and err.count("\n") == 1
    assert not out.exists()


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


def test_segment_fails_only_the_scan_with_a_corrupt_deflate_stream(workspace, tmp_path,
                                                                   capsys):
    good, second = workspace["scan_paths"][:2]
    blob = bytearray(Path(second).read_bytes())
    blob[10] ^= 0xFF  # the first deflate bytes, just past the 10-byte gzip header
    blob[11] ^= 0xFF
    bad = tmp_path / "corrupt.nii.gz"
    bad.write_bytes(bytes(blob))
    manifest = tmp_path / "m.csv"
    manifest.write_text(f"{good},NOR\n{bad},MiNCP\n")
    out = tmp_path / "masks"
    rc = cli.main(["segment", "--manifest", str(manifest),
                   "--config", str(workspace["config"]), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(bad) in err
    rows = list(csv.reader((out / "summary.csv").open()))
    assert [r[0] for r in rows] == ["source_id", "scan0"]


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_segment_fails_only_the_scan_with_a_vox_offset_not_finite(workspace, tmp_path,
                                                                   capsys, bad):
    good, second = workspace["scan_paths"][:2]
    blob = bytearray(gzip.decompress(Path(second).read_bytes()))
    struct.pack_into("<f", blob, 108, bad)
    scan = tmp_path / "offset.nii"
    scan.write_bytes(bytes(blob))
    manifest = tmp_path / "m.csv"
    manifest.write_text(f"{good},NOR\n{scan},MiNCP\n")
    out = tmp_path / "masks"
    rc = cli.main(["segment", "--manifest", str(manifest),
                   "--config", str(workspace["config"]), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(scan) in err and "vox_offset" in err
    rows = list(csv.reader((out / "summary.csv").open()))
    assert [r[0] for r in rows] == ["source_id", "scan0"]


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

    level, samples = read_pack(blob1)
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


def _masks_with_scan1_empty(workspace, masks):
    """The workspace masks, copied to `masks`, with scan1's all zero."""
    masks.mkdir()
    for path in workspace["scan_paths"]:
        name = cli.mask_name(path)
        (masks / name).write_bytes((workspace["masks"] / name).read_bytes())
    header, hu = nifti_io.read_volume(Path(workspace["scan_paths"][1]).read_bytes())
    empty = np.zeros(hu.shape, dtype=bool)
    (masks / cli.mask_name(workspace["scan_paths"][1])).write_bytes(
        nifti_io.write_mask(empty, header.spacing, gzipped=True))
    return masks


@pytest.mark.parametrize("level", ["P1", "P6"])
def test_patch_packs_past_an_empty_mask(workspace, tmp_path, capsys, level):
    masks = _masks_with_scan1_empty(workspace, tmp_path / "masks")
    out = tmp_path / "out"
    rc = cli.main(["patch", "--manifest", str(workspace["manifest"]),
                   "--config", str(workspace["config"]),
                   "--masks", str(masks), "--level", level, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {workspace['scan_paths'][1]}: empty mask\n"
    _, samples = read_pack((out / f"{level}.pack").read_bytes())
    assert sorted({s.source_id for s in samples}) == ["scan0", "scan2", "scan3"]
    assert len(samples) == 3 * cli.PATCH_TABLE[level][1]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_usage_error(workspace, tmp_path, capsys, jobs):
    out = tmp_path / "masks"
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["segment", "--manifest", str(workspace["manifest"]),
                  "--jobs", jobs, "--out", str(out)])
    assert exit_info.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["segment", "patch", "train", "eval",
                                     "predict"])
def test_seed_flag_is_a_usage_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = {
        "segment": ["--manifest", "m.csv", "--out", str(out)],
        "patch": ["--manifest", "m.csv", "--masks", "masks", "--level", "P1",
                  "--out", str(out)],
        "train": ["--packs", "packs", "--out", str(out)],
        "eval": ["--checkpoint", "c.ctck", "--manifest", "m.csv",
                 "--out", str(out)],
        "predict": ["scan.nii.gz", "--checkpoint", "c.ctck"],
    }[command]
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, *argv, "--seed", "3"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert not out.exists()


def test_patch_unknown_level_exits_2(workspace, tmp_path, capsys):
    rc = cli.main(["patch", "--manifest", str(workspace["manifest"]),
                   "--masks", str(workspace["masks"]), "--level", "P9",
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "P9" in capsys.readouterr().err


@pytest.fixture(scope="module")
def twelve(workspace, tmp_path_factory):
    """Twelve scans, three copies of each workspace scan under names of
    their own, with their masks; manifests of the first 4 and of all 12."""
    root = tmp_path_factory.mktemp("twelve")
    scans, masks = root / "scans", root / "masks"
    scans.mkdir()
    masks.mkdir()
    labels = ["NOR", "NOR", "MiNCP", "MiNCP"]
    rows = []
    for k in range(12):
        source = workspace["scan_paths"][k % 4]
        path = scans / f"s{k:02d}.nii.gz"
        path.write_bytes(Path(source).read_bytes())
        (masks / cli.mask_name(str(path))).write_bytes(
            (workspace["masks"] / cli.mask_name(source)).read_bytes())
        rows.append(f"{path},{labels[k % 4]}")
    manifests = {}
    for count in (4, 12):
        manifests[count] = root / f"manifest{count}.csv"
        manifests[count].write_text("\n".join(rows[:count]) + "\n")
    return {"manifests": manifests, "masks": masks, "config": workspace["config"],
            "scan_paths": [row.split(",")[0] for row in rows]}


def _patch_argv(scans, count, masks, level, out, jobs):
    return ["patch", "--manifest", str(scans["manifests"][count]),
            "--config", str(scans["config"]), "--masks", str(masks),
            "--level", level, "--out", str(out), "--jobs", str(jobs)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_patch_memory_does_not_grow_with_the_scan_count(twelve, tmp_path, jobs):
    # each finished scan's records go to the pack file, so a run holds the
    # records of the scans in flight, not of the cohort: at most 2 * jobs
    # submitted ahead, the jobs' scans each as patches and their pack at
    # once, and the chunk being written
    level = "P4"
    shape, count = cli.PATCH_TABLE[level]
    scan_bytes = count * 4 * math.prod(shape)
    peaks = {}
    for scans in (4, 12):
        tracemalloc.start()
        try:
            assert cli.main(_patch_argv(twelve, scans, twelve["masks"], level,
                                        tmp_path / f"out{scans}", jobs)) == 0
            peaks[scans] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[12] - peaks[4] < 2 * scan_bytes, peaks
    assert peaks[12] < (2 * jobs + 4) * scan_bytes, peaks


def _expected_pack(scans, level, skip):
    """(pack, index CSV) of one write_pack over the patches of every scan
    of the 12-scan manifest but `skip`, cut here with cmd_patch's seeds."""
    cfg = cli.load_config(str(scans["config"]))
    rows = cli.load_manifest(str(scans["manifests"][12]))
    labels = cli.class_labels(rows, cfg.protocol)
    samples = []
    for index, row in enumerate(rows):
        if index == skip:
            continue
        _, hu = nifti_io.read_volume(Path(row.path).read_bytes())
        mask = cli._read_mask(str(scans["masks"] / cli.mask_name(row.path)), hu.shape)
        seed = int(np.random.SeedSequence([cfg.seed, index]).generate_state(1)[0])
        samples += extract_patches(hu, mask, level, seed, cli._stem(row.path),
                                   label=int(labels[index]))
    return (write_pack(level, samples),
            pack_index_csv(index_records(samples)).encode())


@pytest.mark.parametrize("skip", [None, 0, 5, 11])
def test_patch_stream_is_one_write_pack_of_the_scans_that_worked(twelve, tmp_path,
                                                                 capsys, skip):
    masks = tmp_path / "masks"
    masks.mkdir()
    for k, path in enumerate(twelve["scan_paths"]):
        if k != skip:
            name = cli.mask_name(path)
            (masks / name).write_bytes((twelve["masks"] / name).read_bytes())
    pack, index = _expected_pack(twelve, "P1", skip)
    for jobs in (1, 2, 3):
        out = tmp_path / f"out{jobs}"
        rc = cli.main(_patch_argv(twelve, 12, masks, "P1", out, jobs))
        assert rc == (0 if skip is None else 1)
        err = capsys.readouterr().err
        if skip is None:
            assert err == ""
        else:
            assert err == (f"error: {twelve['scan_paths'][skip]}: no mask at "
                           f"{masks / cli.mask_name(twelve['scan_paths'][skip])}\n")
        assert (out / "P1.pack").read_bytes() == pack, jobs
        assert (out / "P1_index.csv").read_bytes() == index, jobs
        assert sorted(os.listdir(out)) == ["P1.pack", "P1_index.csv", "effective.cfg"]


def test_patch_with_every_scan_failing_keeps_the_old_pack(twelve, tmp_path, capsys):
    out, empty = tmp_path / "out", tmp_path / "nomasks"
    out.mkdir()
    empty.mkdir()
    (out / "P1.pack").write_bytes(b"the previous pack")
    for jobs in (1, 2):
        assert cli.main(_patch_argv(twelve, 4, empty, "P1", out, jobs)) == 1
        assert capsys.readouterr().err.count("no mask at") == 4
        assert (out / "P1.pack").read_bytes() == b"the previous pack"
        assert sorted(os.listdir(out)) == ["P1.pack", "effective.cfg"]


def _executor_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("ThreadPoolExecutor")]


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("fault", ["error", "shape"])
def test_patch_stream_cut_short_leaves_no_temp_file(twelve, tmp_path, monkeypatch,
                                                    jobs, fault):
    # a scan in the middle raises what no scan failure is, or cuts patches
    # of another shape: the command stops, and the pack is not written
    cut = cli.extract_patches
    bad = cli._stem(twelve["scan_paths"][6])

    def faulty(hu, mask, level, seed, source_id, label=0):
        patches = cut(hu, mask, level, seed, source_id, label=label)
        if source_id != bad:
            return patches
        if fault == "error":
            raise RuntimeError("stop")
        return [dataclasses.replace(p, tensor=p.tensor[1:]) for p in patches]
    monkeypatch.setattr(cli, "extract_patches", faulty)
    before = _executor_threads()
    out = tmp_path / "out"
    with pytest.raises(RuntimeError if fault == "error" else ValueError,
                       match="stop" if fault == "error" else "one shape"):
        cli.main(_patch_argv(twelve, 12, twelve["masks"], "P1", out, jobs))
    assert sorted(os.listdir(out)) == ["effective.cfg"]
    assert _executor_threads() == before


# ------------------------------------------------------------------- train

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


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("train")
    packs = root / "packs"
    packs.mkdir()
    (packs / "P1.pack").write_bytes(write_pack(
        "P1", blob_dataset(16, seed=1, shape=(16, 16, 9), level="P1")))
    (packs / "P2.pack").write_bytes(write_pack(
        "P2", blob_dataset(16, seed=2, shape=(32, 32, 12), level="P2")))
    cfg = root / "train.cfg"
    cfg.write_text(TRAIN_CFG)
    out = root / "run"
    rc = cli.main(["train", "--config", str(cfg), "--packs", str(packs),
                   "--out", str(out)])
    assert rc == 0
    return {"root": root, "packs": packs, "cfg": cfg, "out": out}


def test_train_artifacts(trained, capsys):
    out = trained["out"]
    for name in ("checkpoint_P1.ctck", "checkpoint_P2.ctck",
                 "checkpoint_final.ctck", "history.csv", "effective.cfg"):
        assert (out / name).exists()
    # final checkpoint is the last ladder level
    assert (out / "checkpoint_final.ctck").read_bytes() == \
        (out / "checkpoint_P2.ctck").read_bytes()
    rows = list(csv.reader((out / "history.csv").open()))
    assert rows[0][:2] == ["level", "epoch"]
    assert [r[0] for r in rows[1:]] == ["P1", "P1", "P2", "P2"]
    # checkpoints load back and declare the ladder input shapes
    spec, _ = nn_core.load_checkpoint((out / "checkpoint_P1.ctck").read_bytes())
    assert spec.input_shape == (1, 9, 16, 16)
    spec, _ = nn_core.load_checkpoint((out / "checkpoint_final.ctck").read_bytes())
    assert spec.input_shape == (1, 12, 32, 32)
    cfg = cli.load_config(str(out / "effective.cfg"))
    assert cfg.levels == ("P1", "P2")


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
    assert not (tmp_path / "o").exists()


def test_train_bad_pack_exits_2(trained, tmp_path, capsys):
    cut = trained["packs"].joinpath("P1.pack").read_bytes()[:7]
    p2 = trained["packs"].joinpath("P2.pack").read_bytes()
    samples = blob_dataset(16, seed=1, shape=(16, 16, 9), level="P1")
    for smp in samples[::4]:
        smp.label = 5  # enough of them to split, outside the binary protocol
    nan_samples = blob_dataset(16, seed=1, shape=(16, 16, 9), level="P1")
    nan_samples[3].tensor[:] = np.nan  # set after the sample checked its range
    for name, blob, says in (
            ("cut", cut, "bad pack"),
            ("text", b"plain text, not a pack\n", "bad pack"),
            ("nan", write_pack("P1", nan_samples), "bad pack"),
            ("label", write_pack("P1", samples), "label 5 outside")):
        packs = tmp_path / name
        packs.mkdir()
        (packs / "P1.pack").write_bytes(blob)
        (packs / "P2.pack").write_bytes(p2)
        rc = cli.main(["train", "--config", str(trained["cfg"]),
                       "--packs", str(packs), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert says in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    # a P2 pack must hold P2-shaped patches
    packs = tmp_path / "shape"
    packs.mkdir()
    (packs / "P2.pack").write_bytes(write_pack(
        "P2", blob_dataset(16, seed=1, shape=(16, 16, 9), level="P2")))
    cfg = tmp_path / "p2.cfg"
    cfg.write_text(TRAIN_CFG.replace("P1,P2", "P2"))
    rc = cli.main(["train", "--config", str(cfg), "--packs", str(packs),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == (f"error: {packs / 'P2.pack'} holds (16, 16, 9) patches, "
                   f"level P2 needs (32, 32, 12)\n")
    assert not (tmp_path / "o").exists()


def test_train_checks_every_pack_before_any_epoch(trained, tmp_path, capsys):
    # P2's pack is cut short: training loads it only after P1, but the
    # run still fails on it before P1 trains
    packs = tmp_path / "packs"
    packs.mkdir()
    (packs / "P1.pack").write_bytes(trained["packs"].joinpath("P1.pack").read_bytes())
    (packs / "P2.pack").write_bytes(trained["packs"].joinpath("P2.pack").read_bytes()[:-1])
    rc = cli.main(["train", "--config", str(trained["cfg"]), "--packs", str(packs),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    out, err = capsys.readouterr()
    assert "epoch" not in out
    assert err.startswith(f"error: bad pack {packs / 'P2.pack'}") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("labels, epochs, says", [
    ([0] * 16, 2, "train dataset holds no patch of class 1"),
    ([0, 1, 3] * 7, 2, "train label 3 outside [0,2)"),
    ([0] * 16, 0, "train dataset holds no patch of class 1"),
], ids=["one-class", "outside", "one-class-no-epoch"])
def test_train_checks_every_pack_s_labels_before_any_epoch(trained, tmp_path, capsys,
                                                           labels, epochs, says):
    # P2's labels are not the binary protocol's classes: P1 would train
    # first, so only the check pass can fail the run before any epoch, and
    # its error names the level. Only the batch-of-one check waits for an
    # epoch, so a run of zero epochs fails too
    packs = tmp_path / "packs"
    packs.mkdir()
    (packs / "P1.pack").write_bytes(trained["packs"].joinpath("P1.pack").read_bytes())
    samples = blob_dataset(len(labels), seed=2, shape=(32, 32, 12), level="P2")
    for smp, label in zip(samples, labels):
        smp.label = label
    (packs / "P2.pack").write_bytes(write_pack("P2", samples))
    cfg = tmp_path / "labels.cfg"
    cfg.write_text(TRAIN_CFG.replace("max_epochs = 2", f"max_epochs = {epochs}")
                   .replace("patience = 1", f"patience = {min(epochs, 1)}"))
    rc = cli.main(["train", "--config", str(cfg), "--packs", str(packs),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    out, err = capsys.readouterr()
    assert "[P1] epoch" not in out
    assert err == f"error: level P2: {says}\n"
    assert not (tmp_path / "o").exists()


def test_train_checks_every_level_s_batches_before_any_epoch(trained, tmp_path, capsys):
    # the default model's last batchnorm sees one voxel at P1 and at P2;
    # P2's 8 training patches in batches of 7 leave a batch of one, which
    # fails the run before P1 trains
    packs = tmp_path / "packs"
    packs.mkdir()
    (packs / "P1.pack").write_bytes(trained["packs"].joinpath("P1.pack").read_bytes())
    (packs / "P2.pack").write_bytes(write_pack(
        "P2", blob_dataset(12, seed=2, shape=(32, 32, 12), level="P2")))
    cfg = tmp_path / "batch.cfg"
    cfg.write_text(TRAIN_CFG.replace("model.channels = 2,4\n", "").replace(
        "train.batch_size = 8", "train.batch_size = 7"))
    rc = cli.main(["train", "--config", str(cfg), "--packs", str(packs),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    out, err = capsys.readouterr()
    assert "[P1] epoch" not in out
    assert err.startswith("error: level P2: 8 training patches in batches of 7 ")
    assert "train.batch_size" in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_train_of_no_epoch_writes_the_initial_checkpoints(trained, tmp_path):
    # no epoch draws a batch, so batches of one that the default model's
    # last batchnorm could not normalize do not stop a run of zero epochs
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(TRAIN_CFG.replace("model.channels = 2,4\n", "").replace(
        "max_epochs = 2", "max_epochs = 0").replace("patience = 1", "patience = 0")
        .replace("batch_size = 8", "batch_size = 1"))
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg), "--packs", str(trained["packs"]),
                     "--out", str(out)]) == 0
    spec, weights = nn_core.load_checkpoint((out / "checkpoint_P1.ctck").read_bytes())
    init = nn_core.init_weights(nn_core.base_model((1, 9, 16, 16), 2), seed=5)
    assert spec == nn_core.base_model((1, 9, 16, 16), 2)
    assert weights.keys() == init.keys()
    assert all(np.array_equal(weights[n], init[n]) for n in init)
    spec, _ = nn_core.load_checkpoint((out / "checkpoint_final.ctck").read_bytes())
    assert spec.input_shape == (1, 12, 32, 32)
    assert (out / "history.csv").read_text().count("\n") == 1


def test_train_holds_one_level_of_records(tmp_path):
    # two levels' packs of one size: training them in turn peaks near
    # training the larger alone, not one pack higher as holding both did
    packs = tmp_path / "packs"
    packs.mkdir()
    for level, count in (("P1", 640), ("P2", 120)):
        shape = cli.PATCH_TABLE[level][0]
        (packs / f"{level}.pack").write_bytes(write_pack(
            level, blob_dataset(count, seed=3, shape=shape, level=level)))
    pack_bytes = (packs / "P1.pack").stat().st_size
    peaks = {}
    for levels in ("P2", "P1,P2"):
        cfg = tmp_path / f"{levels}.cfg"
        cfg.write_text(TRAIN_CFG.replace("P1,P2", levels).replace(
            "max_epochs = 2", "max_epochs = 1").replace("patience = 1", "patience = 0"))
        tracemalloc.start()
        try:
            assert cli.main(["train", "--config", str(cfg), "--packs", str(packs),
                             "--out", str(tmp_path / levels)]) == 0
            peaks[levels] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["P1,P2"] < peaks["P2"] + 0.5 * pack_bytes, (peaks, pack_bytes)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_non_finite_loss_exits_1(tmp_path, capsys):
    # legal input, but a step size that blows the weights up in one batch
    packs = tmp_path / "packs"
    packs.mkdir()
    (packs / "P1.pack").write_bytes(write_pack(
        "P1", blob_dataset(16, seed=1, shape=(16, 16, 9), level="P1")))
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TRAIN_CFG.replace("P1,P2", "P1").replace(
        "train.lr0 = 0.001", "train.lr0 = 1e30"))
    rc = cli.main(["train", "--config", str(cfg), "--packs", str(packs),
                   "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: training loss is nan at epoch 0, batch 1\n"
    assert not (tmp_path / "run" / "history.csv").exists()


def test_train_bad_config_key_exits_2(trained, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    bad_values = [("train.val_fraction", v) for v in ("0", "nan", "-0.5", "2")]
    bad_values += [("model.channels", "0"), ("model.channels", "2,-1"),
                   ("model.channels", "1000000,1000000"),
                   ("augment.elastic_grid", "4,4"),
                   ("augment.elastic_grid", "4,4,2,2"),
                   ("augment.elastic_grid", "65,4,2"),
                   ("train.max_epochs", "-1"), ("train.patience", "-3"),
                   ("train.decay_rate", "-1"), ("train.decay_rate", "0"),
                   ("train.decay_rate", "1.5"), ("train.epsilon", "-1"),
                   ("train.epsilon", "nan"), ("train.lr0", "nan"),
                   ("train.lr0", "inf"), ("augment.noise_sigma", "nan"),
                   ("augment.elastic_sigma", "nan"), ("augment.elastic_sigma", "inf"),
                   ("augment.gammas", "0.7,nan"), ("augment.rotation_angles", "nan"),
                   ("augment.shift_fraction", "nan"), ("seed", "-1")]
    cases = [("train.lr = 0.1\n", "train.lr", False),
             (TRAIN_CFG.replace("P1,P2", "P2,P1"), "grow monotonically", False),
             # an elastic draw this size would raise MemoryError mid-training
             (TRAIN_CFG.replace("augment.enabled = false", "augment.enabled = true")
              + "augment.elastic_grid = 100000,100000,100000\n", "elastic_grid", False)]
    for key, value in bad_values:
        kept = [line for line in TRAIN_CFG.splitlines() if not line.startswith(key)]
        cases.append(("\n".join(kept + [f"{key} = {value}"]) + "\n",
                      key.split(".")[-1], False))
    for i, (text, says, writes) in enumerate(cases):
        cfg.write_text(text)
        out = tmp_path / f"o{i}"
        rc = cli.main(["train", "--config", str(cfg),
                       "--packs", str(trained["packs"]), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert says in err and err.count("\n") == 1
        assert out.exists() == writes
    # the elastic grid's bound itself is allowed
    bound = parse_config("augment.elastic_grid = 64,64,64\n")
    assert bound.policy.elastic_grid == (64, 64, 64)


@pytest.mark.parametrize("levels, says", [
    ("T1", "unknown level 'T1' (expected one of P1, P2, P3, P4, P5, P6)"),
    ("P2,P2", "level 'P2' is listed twice")])
def test_train_patch_levels_outside_the_table_exit_2(trained, tmp_path, capsys,
                                                     levels, says):
    with pytest.raises(ConfigError, match=re.escape(says)):
        parse_config(f"patch.levels = {levels}\n")
    cfg = tmp_path / "levels.cfg"
    cfg.write_text(TRAIN_CFG.replace("P1,P2", levels))
    out = tmp_path / "o"
    rc = cli.main(["train", "--config", str(cfg), "--packs", str(trained["packs"]),
                   "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {says}\n"
    assert not out.exists()


# -------------------------------------------------------------------- eval

def test_eval_reports_and_determinism(workspace, trained, tmp_path, capsys):
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    base = ["eval", "--checkpoint", str(trained["out"] / "checkpoint_final.ctck"),
            "--manifest", str(workspace["manifest"]),
            "--config", str(workspace["config"]),
            "--masks", str(workspace["masks"])]
    assert cli.main(base + ["--out", str(out1)]) == 0
    stdout1 = capsys.readouterr().out
    assert cli.main(base + ["--out", str(out2), "--jobs", "2"]) == 0
    assert capsys.readouterr().out == stdout1
    names = ["effective.cfg", "report.csv", "roc.csv"]
    assert sorted(os.listdir(out1)) == sorted(os.listdir(out2)) == names
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    rep = list(csv.reader((out1 / "report.csv").open()))
    assert rep[0][0] == "class"
    assert [r[0] for r in rep[1:]] == ["NOR", "NCP", "weighted"]
    weighted = rep[-1]
    assert weighted[1] == "4"  # every manifest scan is scored, in one set
    # stdout is the weighted row: recall (accuracy), precision, F1, macro AUC
    assert stdout1.splitlines() == [
        f"{name}: {float(value):.4f}" for name, value in
        zip(["accuracy", "weighted_precision", "weighted_f1", "macro_auc"],
            weighted[2:5] + weighted[6:])]
    roc = list(csv.reader((out1 / "roc.csv").open()))
    assert roc[0] == ["class", "fpr", "tpr"]


def test_jobs_workers_run_each_kernel_as_one_part(workspace, trained, tmp_path,
                                                 monkeypatch):
    # with one job the main thread splits the kernels; under --jobs each
    # worker runs them whole, and the outputs are the same bytes
    monkeypatch.setattr(parallel, "CPUS", 2)
    calls = []
    run = parallel.run

    def recording(part, n):
        calls.append((threading.current_thread() is threading.main_thread(), n))
        return run(part, n)
    monkeypatch.setattr(parallel, "run", recording)
    common = ["--manifest", str(workspace["manifest"]), "--config", str(workspace["config"])]
    seen = {}
    for jobs in ("1", "2"):
        calls.clear()
        masks, scores = tmp_path / f"masks{jobs}", tmp_path / f"eval{jobs}"
        assert cli.main(["segment", *common, "--out", str(masks), "--jobs", jobs]) == 0
        assert cli.main(["eval", "--checkpoint", str(trained["out"] / "checkpoint_final.ctck"),
                         *common, "--out", str(scores), "--jobs", jobs]) == 0
        seen[jobs] = set(calls)
    assert seen["1"] == {(True, 1), (True, 2)}
    assert seen["2"] == {(False, 1)}
    for out in ("masks", "eval"):
        names = sorted(os.listdir(tmp_path / f"{out}1"))
        assert names == sorted(os.listdir(tmp_path / f"{out}2"))
        for name in names:
            assert ((tmp_path / f"{out}1" / name).read_bytes()
                    == (tmp_path / f"{out}2" / name).read_bytes()), name


def test_eval_report_is_the_report_of_every_scan(workspace, trained, tmp_path):
    ck = trained["out"] / "checkpoint_final.ctck"
    out = tmp_path / "e"
    assert cli.main(["eval", "--checkpoint", str(ck),
                     "--manifest", str(workspace["manifest"]),
                     "--config", str(workspace["config"]),
                     "--masks", str(workspace["masks"]), "--out", str(out)]) == 0
    spec, weights = nn_core.load_checkpoint(ck.read_bytes())
    probs = []
    for path in workspace["scan_paths"]:
        _, hu = nifti_io.read_volume(Path(path).read_bytes())
        _, raw = nifti_io.read_raw(
            (workspace["masks"] / cli.mask_name(path)).read_bytes())
        std = standardize_volume(hu, raw > 0)
        probs.append(nn_core.model_forward(spec, weights, cli._model_input(std, spec))[0])
    labels = cli.class_labels(cli.load_manifest(str(workspace["manifest"])), "binary")
    report = metrics.evaluate_probs(np.stack(probs), labels)
    assert (out / "report.csv").read_bytes() == metrics.report_csv(
        report, ["NOR", "NCP"]).encode()
    assert (out / "roc.csv").read_bytes() == metrics.roc_points_csv(
        dict(zip(["NOR", "NCP"], report.roc_points))).encode()


def test_eval_folds_flag_is_a_usage_error(workspace, trained, tmp_path, capsys):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["eval", "--checkpoint", str(trained["out"] / "checkpoint_final.ctck"),
                  "--manifest", str(workspace["manifest"]), "--folds", "2",
                  "--out", str(out)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --folds 2" in capsys.readouterr().err
    assert not out.exists()


def test_eval_fails_a_scan_with_an_empty_mask(workspace, trained, tmp_path,
                                             capsys):
    masks = _masks_with_scan1_empty(workspace, tmp_path / "masks")
    out = tmp_path / "e"
    rc = cli.main(["eval", "--checkpoint",
                   str(trained["out"] / "checkpoint_final.ctck"),
                   "--manifest", str(workspace["manifest"]),
                   "--config", str(workspace["config"]),
                   "--masks", str(masks), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {workspace['scan_paths'][1]}: empty mask\n"
    assert sorted(os.listdir(out)) == ["effective.cfg"]


def test_eval_takes_the_classes_from_the_checkpoint(workspace, tmp_path):
    spec = nn_core.base_model((1, 4, 8, 8), 4, channels=(2,))
    ck = tmp_path / "four.ctck"
    ck.write_bytes(nn_core.save_checkpoint(spec, nn_core.init_weights(spec, seed=0)))
    out = tmp_path / "e"
    # the workspace config says binary; the checkpoint has four classes
    rc = cli.main(["eval", "--checkpoint", str(ck),
                   "--manifest", str(workspace["manifest"]),
                   "--config", str(workspace["config"]),
                   "--masks", str(workspace["masks"]), "--out", str(out)])
    assert rc == 0
    rep = list(csv.reader((out / "report.csv").open()))
    assert [r[0] for r in rep[1:]] == ["NOR", "MiNCP", "MoNCP", "SeNCP", "weighted"]
    # the two MiNCP scans stay MiNCP rather than folding into NCP
    assert [int(r[1]) for r in rep[1:]] == [2, 2, 0, 0, 4]
    assert cli.load_config(str(out / "effective.cfg")).protocol == "multiclass"


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "file_sub"])
@pytest.mark.parametrize("command", ["segment", "patch", "train", "eval"])
def test_out_that_cannot_be_a_directory_exits_2(workspace, trained, tmp_path, capsys,
                                                command, below):
    afile = tmp_path / "afile"
    afile.write_text("keep me\n")
    out = afile / below if below else afile
    argv = {
        "segment": ["--manifest", str(workspace["manifest"])],
        "patch": ["--manifest", str(workspace["manifest"]),
                  "--masks", str(workspace["masks"]), "--level", "P1"],
        "train": ["--packs", str(trained["packs"]), "--config", str(trained["cfg"])],
        "eval": ["--checkpoint", str(trained["out"] / "checkpoint_final.ctck"),
                 "--manifest", str(workspace["manifest"]),
                 "--masks", str(workspace["masks"])],
    }[command]
    rc = cli.main([command, *argv, "--out", str(out)])
    assert rc == 2
    stdout, err = capsys.readouterr()
    # train finds out before it trains
    assert stdout == ""
    assert err.startswith(f"error: cannot make --out {out}: ") and err.count("\n") == 1
    assert afile.read_text() == "keep me\n"


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
    _, hu = nifti_io.read_volume(Path(workspace["scan_paths"][0]).read_bytes())
    std = cli.standardize_volume(hu, segment_lung(hu, cfg.seg))
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
    path.write_bytes(nn_core.save_checkpoint(spec, weights))


@pytest.mark.parametrize("command", ["predict", "eval"])
def test_scoring_frees_the_scan_before_the_forward(workspace, tmp_path, monkeypatch,
                                                   command):
    # the HU volume and its mask are dead once standardize_volume returns,
    # so the forward's activations do not sit on top of them
    ck = tmp_path / "fixture.ctck"
    _threshold_checkpoint(workspace, ck)
    refs, alive = [], []
    standardize, forward = cli.standardize_volume, nn_core.model_forward

    def recording(hu, mask, *args, **kwargs):
        refs.extend([weakref.ref(hu), weakref.ref(mask)])
        return standardize(hu, mask, *args, **kwargs)

    def checking(*args, **kwargs):
        alive.append([ref() is not None for ref in refs])
        return forward(*args, **kwargs)
    monkeypatch.setattr(cli, "standardize_volume", recording)
    monkeypatch.setattr(nn_core, "model_forward", checking)
    if command == "predict":
        argv = ["predict", workspace["scan_paths"][0], "--checkpoint", str(ck)]
    else:
        argv = ["eval", "--checkpoint", str(ck), "--manifest", str(workspace["manifest"]),
                "--masks", str(workspace["masks"]), "--out", str(tmp_path / "e")]
    assert cli.main(argv + ["--config", str(workspace["config"])]) == 0
    scans = 1 if command == "predict" else 4
    assert alive == [[False] * 2 * (k + 1) for k in range(scans)]


def test_model_input_at_the_standard_grid_makes_no_float64_copy():
    # a float64 copy of the 512x512x36 grid alone is 75 MB; at the checkpoint
    # grid the model input is a view of the standardized voxels
    voxels = np.random.default_rng(5).random((512, 512, 36), dtype=np.float32)
    spec = nn_core.base_model((1, 36, 512, 512), 2, channels=(2,))
    tracemalloc.start()
    try:
        tensor = cli._model_input(voxels, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tensor.dtype == np.float32
    assert np.array_equal(tensor[0, 0], voxels.transpose(2, 0, 1))
    assert np.shares_memory(tensor, voxels)
    assert peak < 60e6


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


def test_predict_does_not_depend_on_the_core_count(workspace, tmp_path, capsys,
                                                  monkeypatch):
    # a whole-grid checkpoint, so the stem pads the transposed scan
    spec = nn_core.base_model((1,) + STANDARD_SHAPE[2:] + STANDARD_SHAPE[:2], 2,
                              channels=(2,))
    ck = tmp_path / "grid.ctck"
    ck.write_bytes(nn_core.save_checkpoint(spec, nn_core.init_weights(spec, seed=3)))
    scan = workspace["scan_paths"][1]
    seen = []
    for cpus in (1, 3):
        monkeypatch.setattr(parallel, "CPUS", cpus)
        assert cli.main(["predict", scan, "--checkpoint", str(ck),
                         "--config", str(workspace["config"])]) == 0
        probs, = cli.score_scans(spec, nn_core.load_checkpoint(ck.read_bytes())[1],
                                 cli.load_config(str(workspace["config"])).seg, [scan],
                                 None, 1)
        seen.append((capsys.readouterr().out, probs.tobytes()))
    assert seen[0] == seen[1]


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
    # inputs no scan is resampled to: an axis of 2**40 (8 TiB of taps), two channels
    outsized = [nn_core.base_model(shape, 2, channels=(2,))
                for shape in ((1, 4, 2**40, 8), (2, 4, 8, 8))]
    junk = tmp_path / "junk.ctck"
    for blob in (b"not a checkpoint at all", good[:7], good + b"\0\0", reshaped,
                 wide_head, *(nn_core.save_checkpoint(s, nn_core.init_weights(s))
                              for s in outsized)):
        junk.write_bytes(blob)
        rc = cli.main(["predict", workspace["scan_paths"][0],
                       "--checkpoint", str(junk)])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: bad checkpoint") and err.count("\n") == 1


def test_predict_checkpoint_of_outsized_activations_exits_2(workspace, tmp_path,
                                                             capsys, monkeypatch):
    # a 1.6 MB file whose first conv asks for 4096 x 36 x 512 x 512 values
    # (144 GiB of float32); the forward must never start
    def forward(*args, **kwargs):
        raise AssertionError("the checkpoint was not rejected at load")
    monkeypatch.setattr(nn_core, "model_forward", forward)
    spec = nn_core.base_model((1, 36, 512, 512), 2, channels=(4096,))
    ck = tmp_path / "wide.ctck"
    ck.write_bytes(nn_core.save_checkpoint(spec, nn_core.init_weights(spec)))
    rc = cli.main(["predict", workspace["scan_paths"][0], "--checkpoint", str(ck)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: bad checkpoint {ck}: a layer outputs 38654705664 values, "
                   f"more than {cli.MAX_ACTIVATION}\n")

    # the pyramid's largest model, and a whole-grid model of two stems over
    # a P4 base model, as the screen benchmark's, still load
    p6 = nn_core.base_model((1, 36, 512, 512), 2)
    screen = nn_core.base_model((1, 9, 128, 128), 2)
    weights = nn_core.init_weights(screen)
    for _ in range(2):
        screen, weights = nn_core.build_progressive(screen, weights)
    for spec, values in ((p6, 150_994_944), (screen, 9_437_184)):
        assert max(math.prod(shape) for shape in nn_core.model_shapes(spec)) == values
        ck.write_bytes(nn_core.save_checkpoint(spec, nn_core.init_weights(spec)))
        assert cli._load_model(str(ck))[0] == spec


def test_predict_checkpoint_without_a_protocol_exits_2(workspace, tmp_path,
                                                       capsys):
    spec = nn_core.base_model((1, 4, 8, 8), 3, channels=(2,))
    ck = tmp_path / "three.ctck"
    ck.write_bytes(nn_core.save_checkpoint(spec, nn_core.init_weights(spec, seed=0)))
    rc = cli.main(["predict", workspace["scan_paths"][0], "--checkpoint", str(ck)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: checkpoint has 3 classes; no protocol has that many\n"


def test_non_finite_probabilities_fail_the_scan(workspace, tmp_path, capsys):
    spec, weights = _small_checkpoint()
    weights["L0.kernel"][:] = np.nan
    ck = tmp_path / "nan.ctck"
    ck.write_bytes(nn_core.save_checkpoint(spec, weights))
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
                   "--masks", str(workspace["masks"]), "--out", str(tmp_path / "e")])
    assert rc == 1
    err = capsys.readouterr().err
    for path in workspace["scan_paths"]:
        assert f"error: {path}: checkpoint produced non-finite" in err
