"""Evaluation stack: confusion matrices, class-wise rates, ROC/AUC and
stratified k-fold assignment.

Confusion matrices here are oriented rows = PREDICTED, columns = ACTUAL.
That is the transpose of what several libraries emit; every consumer in
this package (CSV headers included) states the orientation to avoid silent
transposition bugs.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass

import numpy as np


@dataclass
class EvalReport:
    matrix: np.ndarray              # (K, K) int64 counts; [predicted, actual]
    recall: np.ndarray
    precision: np.ndarray
    f1: np.ndarray
    undefined_precision: np.ndarray  # flags: predicted-count zero
    weighted_recall: float
    weighted_precision: float
    weighted_f1: float
    auc: np.ndarray = None          # per-class one-vs-rest, when computable
    macro_auc: float = None
    roc_points: list = None         # per-class [(fpr, tpr), ...]


def confusion_matrix(predicted, actual, k) -> np.ndarray:
    """(k, k) int64 counts: [predicted, actual]."""
    predicted = np.asarray(predicted, dtype=np.int64)
    actual = np.asarray(actual, dtype=np.int64)
    if predicted.shape != actual.shape:
        raise ValueError("predicted/actual length mismatch")
    for name, arr in (("predicted", predicted), ("actual", actual)):
        if arr.size and (arr.min() < 0 or arr.max() >= k):
            raise ValueError(f"{name} labels outside [0,{k})")
    counts = np.bincount((predicted * k + actual).ravel(), minlength=k * k)
    return counts.reshape(k, k)


def precision_recall_f1(matrix) -> EvalReport:
    """Class-wise rates plus support-weighted averages of a confusion matrix
    (rows predicted, columns actual), which must be square and non-negative.

    A class never predicted has precision 0 with its flag raised rather
    than NaN, so downstream CSVs stay numeric.
    """
    matrix = np.asarray(matrix, dtype=np.int64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("confusion matrix must be square")
    if (matrix < 0).any():
        raise ValueError("counts must be non-negative")
    tp = np.diag(matrix).astype(np.float64)
    actual = matrix.sum(axis=0).astype(np.float64)
    predicted = matrix.sum(axis=1).astype(np.float64)
    recall = np.divide(tp, actual, out=np.zeros_like(tp), where=actual > 0)
    undefined = predicted == 0
    precision = np.divide(tp, predicted, out=np.zeros_like(tp), where=predicted > 0)
    pr = precision + recall
    f1 = np.divide(2 * precision * recall, pr, out=np.zeros_like(tp), where=pr > 0)
    total = actual.sum()
    wr = float((recall * actual).sum() / total) if total else 0.0
    wp = float((precision * actual).sum() / total) if total else 0.0
    wf = float((f1 * actual).sum() / total) if total else 0.0
    return EvalReport(matrix, recall, precision, f1, undefined, wr, wp, wf)


def roc_curve(scores, labels):
    """Threshold sweep over descending unique scores.

    Returns (points, auc): points from (0,0) to (1,1), each the (FPR, TPR)
    of predicting positive at score >= threshold. The trapezoidal area
    equals the Mann-Whitney statistic with ties counted one half.
    """
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(labels).astype(bool)
    p = int(pos.sum())
    n = scores.size - p
    if p == 0 or n == 0:
        raise ValueError("need both a positive and a negative sample")
    order = np.argsort(-scores, kind="stable")
    y = pos[order]
    s = scores[order]
    # last index of each tied-score run marks one threshold
    boundary = np.nonzero(np.diff(s))[0]
    cut = np.concatenate([boundary, [scores.size - 1]])
    tpr = np.cumsum(y)[cut] / p
    fpr = np.cumsum(~y)[cut] / n
    points = [(0.0, 0.0)] + list(zip(fpr.tolist(), tpr.tolist()))
    xs = np.array([q[0] for q in points])
    ys = np.array([q[1] for q in points])
    auc = float(np.sum(np.diff(xs) * (ys[1:] + ys[:-1]) * 0.5))
    return points, auc


def kfold_split(labels, k=5, seed=0):
    """Fold id per sample, stratified: per-class fold sizes stay within 1."""
    labels = np.asarray(labels, dtype=np.int64)
    if k < 2:
        raise ValueError("need at least 2 folds")
    folds = np.empty(labels.size, dtype=np.int64)
    rng = np.random.default_rng(seed)
    for c in np.unique(labels):  # sorted, so the draw order is fixed
        idx = np.nonzero(labels == c)[0]
        if idx.size < k:
            raise ValueError(f"class {c} has {idx.size} samples for {k} folds")
        perm = rng.permutation(idx.size)
        folds[idx[perm]] = np.arange(idx.size) % k
    return folds


def evaluate_probs(probs, actual):
    """Full report from probability rows: argmax labels, rates, and the OvR
    AUCs when every class appears in `actual`."""
    probs = np.asarray(probs, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.int64)
    k = probs.shape[1]
    predicted = probs.argmax(axis=1)
    report = precision_recall_f1(confusion_matrix(predicted, actual, k))
    if k < 2 or not report.matrix.sum(axis=0).all():
        return report  # one-vs-rest ROC needs every class and a rest
    curves = [roc_curve(probs[:, c], actual == c) for c in range(k)]
    report.roc_points = [points for points, _ in curves]
    report.auc = np.array([auc for _, auc in curves])
    report.macro_auc = float(report.auc.mean())
    return report


# -------------------------------------------------------------- rendering

def report_csv(report: EvalReport, class_names):
    k = report.matrix.shape[0]
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["class", "support", "recall", "precision", "f1",
                "precision_undefined", "auc_ovr"])
    support = report.matrix.sum(axis=0)
    for i in range(k):
        auc = "" if report.auc is None else repr(float(report.auc[i]))
        w.writerow([class_names[i], int(support[i]), repr(float(report.recall[i])),
                    repr(float(report.precision[i])), repr(float(report.f1[i])),
                    int(report.undefined_precision[i]), auc])
    macro = "" if report.macro_auc is None else repr(report.macro_auc)
    w.writerow(["weighted", int(report.matrix.sum()), repr(report.weighted_recall),
                repr(report.weighted_precision), repr(report.weighted_f1), "", macro])
    return buf.getvalue()


def roc_points_csv(class_points):
    """{class name: ROC points} as CSV, one (class, fpr, tpr) row per point."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["class", "fpr", "tpr"])
    for name, points in class_points.items():
        for x, y in points:
            w.writerow([name, repr(float(x)), repr(float(y))])
    return buf.getvalue()

