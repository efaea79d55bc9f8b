"""Each output check passes the program's true output and rejects a broken one.

Run with the repository's test command, or alone:

    PYTHONPATH=src python3 -m pytest bench/test_bench_checks.py
"""

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import formats  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
from ctscreen import cli  # noqa: E402

SMALL = ((112, 144, 32), "NOR"), ((112, 144, 32), "MiNCP")


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    """Two small phantoms, their masks and a P1 pack, all made by ctscreen."""
    root = str(tmp_path_factory.mktemp("cohort"))
    rows, geometry = inputs.write_scans(root, 3, SMALL)
    manifest = os.path.join(root, "manifest.csv")
    with open(manifest, "w") as fh:
        fh.write("".join(f"{p},{label}\n" for p, label in rows))
    masks, packs = os.path.join(root, "masks"), os.path.join(root, "packs")
    run(["segment", "--manifest", manifest, "--out", masks])
    run(["patch", "--manifest", manifest, "--masks", masks, "--level", "P1",
         "--out", packs])
    return {"rows": rows, "geometry": geometry, "masks": masks,
            "pack": os.path.join(packs, "P1.pack")}


def test_mask_check_rejects_a_mask_with_one_lung_removed(cohort):
    assert checks.check_masks(cohort["rows"], cohort["geometry"], cohort["masks"]) == []
    name = os.path.join(cohort["masks"], "scan0_mask.nii.gz")
    raw, _, _ = formats.read_nifti(name)
    one_lung = raw.copy()
    one_lung[:, raw.shape[1] // 2:, :] = 0
    original = open(name, "rb").read()
    try:
        formats.write_nifti_gz(name, one_lung)
        problems = checks.check_masks(cohort["rows"], cohort["geometry"], cohort["masks"])
    finally:
        with open(name, "wb") as fh:
            fh.write(original)
    assert len(problems) == 1 and "Dice" in problems[0]


def test_pack_check_rejects_a_record_cut_short(cohort, tmp_path):
    args = (cohort["rows"], cohort["masks"], 0)
    assert checks.check_pack(cohort["pack"], "P1", *args) == []
    cut = tmp_path / "P1.pack"
    cut.write_bytes(open(cohort["pack"], "rb").read()[:-100])
    problems = checks.check_pack(str(cut), "P1", *args)
    assert len(problems) == 1 and "cut short" in problems[0]


def test_prediction_check_rejects_a_wrong_label(cohort, tmp_path):
    spec = {"input_shape": [1, 12, 32, 32], "class_count": 2,
            "layers": inputs.model_layers(0)}
    ckpt = str(tmp_path / "small.ctck")
    formats.write_checkpoint(ckpt, spec, inputs.screen_weights(spec))
    for (path, label), expected in zip(cohort["rows"], ("NOR", "NCP")):
        text = run(["predict", path, "--checkpoint", ckpt])
        assert checks.check_prediction(text, expected) == []
        wrong = "NOR" if expected == "NCP" else "NCP"
        lines = text.strip().splitlines()
        lying = "\n".join(lines[:-1] + [f"label: {wrong}"])
        assert len(checks.check_prediction(lying, expected)) == 2


@pytest.fixture(scope="module")
def ladder(tmp_path_factory):
    """The train_ladder workload's packs and one `ctscreen train` over them."""
    root = str(tmp_path_factory.mktemp("ladder"))
    plan = inputs.setup_train_ladder(root, os.path.join(root, "out"), 3)
    run(plan["commands"][0])
    return plan["out"]


def test_history_check_rejects_a_nan_row(ladder, tmp_path):
    path = os.path.join(ladder, "history.csv")
    assert checks.check_history(path) == []
    lines = open(path).read().splitlines()
    lines[3] = ",".join(lines[3].split(",")[:2] + ["nan"] * 4 + [lines[3].split(",")[-1]])
    broken = tmp_path / "history.csv"
    broken.write_text("\n".join(lines) + "\n")
    problems = checks.check_history(str(broken))
    assert problems and all("line 4" in p for p in problems)


def test_checkpoint_check_rejects_a_level_not_behind_a_stem(ladder, tmp_path):
    assert checks.check_checkpoints(ladder) == []
    for name in os.listdir(ladder):
        data = open(os.path.join(ladder, name), "rb").read()
        (tmp_path / name).write_bytes(data)
    spec, tensors = formats.read_checkpoint(os.path.join(ladder, "checkpoint_P2.ctck"))
    formats.write_checkpoint(str(tmp_path / "checkpoint_P3.ctck"), spec, tensors)
    assert any("ladder" in p for p in checks.check_checkpoints(str(tmp_path)))


def test_benchmark_json_lists_the_traced_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        spans.PER_LAYER
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(inputs.SETUPS)
    assert all(m["bound"] <= 0.25 for m in bench["end_to_end"])
