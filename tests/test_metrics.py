import csv
import io

import numpy as np
import pytest

from ctscreen.metrics import (ConfusionMatrix, LabelOutOfRange, MissingClass,
                              SingleClassInput, TooFewSamples,
                              confusion_matrix, evaluate_probs, kfold_split,
                              macro_auc_ovr, precision_recall_f1, report_csv,
                              roc_auc, roc_curve, roc_points_csv)


def auc_pair_oracle(scores, labels):
    # O(n^2) Mann-Whitney count: wins 1, ties 1/2, over all pos/neg pairs
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(bool)
    pos = scores[labels]
    neg = scores[~labels]
    wins = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(pos) * len(neg))


# ------------------------------------------------------- confusion matrix

def test_confusion_orientation_rows_are_predicted():
    # one sample predicted 2 while actually 0 must land at [2, 0]
    m = confusion_matrix([2], [0], k=3)
    assert m.counts[2, 0] == 1
    assert m.counts.sum() == 1


def test_confusion_supports():
    m = confusion_matrix([0, 0, 1, 1, 1], [0, 1, 1, 1, 0], k=2)
    assert list(m.actual_support()) == [2, 3]
    assert list(m.predicted_support()) == [2, 3]
    assert m.total() == 5


def test_confusion_label_out_of_range():
    with pytest.raises(LabelOutOfRange):
        confusion_matrix([0, 3], [0, 0], k=3)
    with pytest.raises(LabelOutOfRange):
        confusion_matrix([0, 0], [-1, 0], k=3)


def test_confusion_rejects_negative_counts():
    with pytest.raises(ValueError):
        ConfusionMatrix(np.array([[1, -1], [0, 2]]))


# -------------------------------------------------------- rates and means

def test_rates_on_published_binary_matrix():
    # 1110-scan binary split: 254 class-0 and 856 class-1 actuals
    m = ConfusionMatrix(np.array([[167, 8], [87, 848]]))
    r = precision_recall_f1(m)
    assert abs(r.recall[0] - 167 / 254) < 1e-12
    assert abs(r.recall[1] - 848 / 856) < 1e-12
    assert abs(r.precision[0] - 167 / 175) < 1e-12
    assert abs(r.precision[1] - 848 / 935) < 1e-12
    # published figures are printed to two decimal percent points
    assert abs(r.recall[0] - 0.6575) < 1e-4
    assert abs(r.recall[1] - 0.9906) < 1e-4
    assert abs(r.precision[0] - 0.9543) < 1e-4
    # weighted recall is plain accuracy
    assert abs(r.weighted_recall - (167 + 848) / 1110) < 1e-12


def test_f1_closed_form():
    m = ConfusionMatrix(np.array([[8, 2], [4, 6]]))
    r = precision_recall_f1(m)
    p0, rec0 = 8 / 10, 8 / 12
    assert abs(r.f1[0] - 2 * p0 * rec0 / (p0 + rec0)) < 1e-12


def test_never_predicted_class_flags_precision():
    m = confusion_matrix([0, 0, 0], [0, 1, 1], k=2)
    r = precision_recall_f1(m)
    assert r.precision[1] == 0.0
    assert r.f1[1] == 0.0
    assert list(r.undefined_precision) == [False, True]
    assert np.isfinite(r.f1).all()


def test_weighted_recall_equals_accuracy_randomly():
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(50):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(5, 60))
        pred = rng.integers(0, k, size=n)
        act = rng.integers(0, k, size=n)
        r = precision_recall_f1(confusion_matrix(pred, act, k))
        assert abs(r.weighted_recall - np.mean(pred == act)) < 1e-12


# ------------------------------------------------------------------- ROC

def test_auc_matches_pair_oracle_with_ties():
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(30):
        n = int(rng.integers(8, 40))
        # quantized scores force tied values across classes
        scores = np.round(rng.random(n), 1)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert abs(roc_auc(scores, labels) - auc_pair_oracle(scores, labels)) < 1e-12


def test_auc_monotone_transform_invariant():
    rng = np.random.Generator(np.random.PCG64(13))
    scores = rng.random(50)
    labels = rng.integers(0, 2, size=50)
    labels[0], labels[1] = 0, 1
    base = roc_auc(scores, labels)
    assert abs(roc_auc(np.exp(scores), labels) - base) < 1e-12
    assert abs(roc_auc(2.0 * scores + 3.0, labels) - base) < 1e-12


def test_roc_curve_anchored_and_monotone():
    rng = np.random.Generator(np.random.PCG64(17))
    scores = np.round(rng.random(60), 1)
    labels = rng.integers(0, 2, size=60)
    labels[0], labels[1] = 0, 1
    points, _ = roc_curve(scores, labels)
    assert points[0] == (0.0, 0.0)
    assert points[-1] == (1.0, 1.0)
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    assert (np.diff(xs) >= -1e-15).all()
    assert (np.diff(ys) >= -1e-15).all()


def test_auc_extremes():
    assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert roc_auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0
    assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 1, 0, 0]) == 0.5


def test_auc_single_class_raises():
    with pytest.raises(SingleClassInput):
        roc_auc([0.1, 0.9], [1, 1])


def test_macro_auc_two_class_symmetry():
    # complementary probability columns give identical per-class AUCs
    rng = np.random.Generator(np.random.PCG64(19))
    p1 = rng.random(40)
    probs = np.stack([1.0 - p1, p1], axis=1)
    labels = rng.integers(0, 2, size=40)
    labels[0], labels[1] = 0, 1
    aucs, macro = macro_auc_ovr(probs, labels, k=2)
    assert abs(aucs[0] - aucs[1]) < 1e-12
    assert abs(macro - roc_auc(p1, labels)) < 1e-12


def test_macro_auc_missing_class_raises():
    probs = np.full((6, 3), 1 / 3)
    with pytest.raises(MissingClass):
        macro_auc_ovr(probs, [0, 0, 1, 1, 0, 1], k=3)


# ----------------------------------------------------------------- folds

def test_kfold_deterministic_and_partitioning():
    labels = np.array([0] * 17 + [1] * 23)
    a = kfold_split(labels, k=5, seed=3)
    b = kfold_split(labels, k=5, seed=3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, kfold_split(labels, k=5, seed=4))
    assert set(np.unique(a)) == set(range(5))


def test_kfold_class_balance_random_manifests():
    rng = np.random.Generator(np.random.PCG64(23))
    for trial in range(100):
        k = int(rng.integers(2, 6))
        sizes = rng.integers(k, 4 * k, size=int(rng.integers(2, 4)))
        labels = np.concatenate([np.full(s, c) for c, s in enumerate(sizes)])
        labels = labels[rng.permutation(labels.size)]
        folds = kfold_split(labels, k=k, seed=trial)
        for c in range(len(sizes)):
            per_fold = np.bincount(folds[labels == c], minlength=k)
            assert per_fold.max() - per_fold.min() <= 1


def test_kfold_published_cohort_sizes():
    # 254 scans over 5 folds must split as four 51s and one 50
    folds = kfold_split(np.zeros(254, dtype=int), k=5, seed=0)
    sizes = sorted(np.bincount(folds, minlength=5).tolist())
    assert sizes == [50, 51, 51, 51, 51]


def test_kfold_too_few_samples():
    with pytest.raises(TooFewSamples):
        kfold_split([0, 0, 0, 1, 1, 1, 1, 1], k=5, seed=0)


# ---------------------------------------------------------------- report

def test_evaluate_probs_end_to_end():
    rng = np.random.Generator(np.random.PCG64(29))
    n, k = 60, 3
    labels = rng.integers(0, k, size=n)
    labels[:k] = np.arange(k)
    logits = rng.random((n, k))
    logits[np.arange(n), labels] += 0.8
    probs = logits / logits.sum(axis=1, keepdims=True)
    rep = evaluate_probs(probs, labels, fold_id=2)
    assert rep.fold_id == 2
    assert rep.matrix.total() == n
    assert rep.auc is not None and len(rep.auc) == k
    assert abs(rep.macro_auc - rep.auc.mean()) < 1e-12
    assert len(rep.roc_points) == k


def test_evaluate_probs_degrades_without_all_classes():
    probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.3, 0.7]])
    rep = evaluate_probs(probs, [1, 1, 1])
    assert rep.auc is None and rep.roc_points is None


def test_report_csv_round_trip():
    m = ConfusionMatrix(np.array([[167, 8], [87, 848]]))
    rep = precision_recall_f1(m)
    rows = list(csv.reader(io.StringIO(report_csv(rep, ["NOR", "NCP"]))))
    assert rows[0][0] == "class"
    body = {r[0]: r for r in rows[1:]}
    assert float(body["NOR"][2]) == rep.recall[0]
    assert float(body["NCP"][3]) == rep.precision[1]
    assert int(body["NOR"][1]) == 254
    assert float(body["weighted"][2]) == rep.weighted_recall


def test_roc_points_csv():
    first, _ = roc_curve([0.9, 0.8, 0.2], [1, 1, 0])
    second, _ = roc_curve([0.1, 0.7, 0.8], [1, 1, 0])
    text = roc_points_csv({"NOR": first, "NCP": second})
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["class", "fpr", "tpr"]
    for name, points in (("NOR", first), ("NCP", second)):
        parsed = [(float(a), float(b)) for c, a, b in rows[1:] if c == name]
        assert parsed == points

