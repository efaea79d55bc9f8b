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
from dataclasses import dataclass, field

import numpy as np

from .nn_core import LabelOutOfRange


class SingleClassInput(ValueError):
    """ROC needs at least one positive and one negative sample."""


class MissingClass(ValueError):
    pass


class TooFewSamples(ValueError):
    pass


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # (K, K) ints; [predicted, actual]

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise ValueError("confusion matrix must be square")
        if (self.counts < 0).any():
            raise ValueError("counts must be non-negative")

    @property
    def k(self):
        return self.counts.shape[0]

    def total(self):
        return int(self.counts.sum())

    def actual_support(self):
        return self.counts.sum(axis=0)  # column sums

    def predicted_support(self):
        return self.counts.sum(axis=1)  # row sums


@dataclass
class EvalReport:
    matrix: ConfusionMatrix
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
    fold_id: int = None


def confusion_matrix(predicted, actual, k) -> ConfusionMatrix:
    predicted = np.asarray(predicted, dtype=np.int64)
    actual = np.asarray(actual, dtype=np.int64)
    if predicted.shape != actual.shape:
        raise ValueError("predicted/actual length mismatch")
    for name, arr in (("predicted", predicted), ("actual", actual)):
        if arr.size and (arr.min() < 0 or arr.max() >= k):
            raise LabelOutOfRange(f"{name} labels outside [0,{k})")
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (predicted, actual), 1)
    return ConfusionMatrix(counts)


def precision_recall_f1(matrix: ConfusionMatrix) -> EvalReport:
    """Class-wise rates plus support-weighted averages.

    A class never predicted has precision 0 with its flag raised rather
    than NaN, so downstream CSVs stay numeric.
    """
    counts = matrix.counts
    tp = np.diag(counts).astype(np.float64)
    actual = matrix.actual_support().astype(np.float64)
    predicted = matrix.predicted_support().astype(np.float64)
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
        raise SingleClassInput("need both a positive and a negative sample")
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


def roc_auc(scores, labels):
    return roc_curve(scores, labels)[1]


def macro_auc_ovr(probs, labels, k):
    """Unweighted mean of one-vs-rest AUCs; every class must appear."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if probs.ndim != 2 or probs.shape[1] != k:
        raise ValueError(f"probability matrix must be (n,{k})")
    present = np.unique(labels)
    if len(present) < k or present.min() < 0 or present.max() >= k:
        missing = sorted(set(range(k)) - set(present.tolist()))
        raise MissingClass(f"classes {missing} absent from labels")
    aucs = np.array([roc_auc(probs[:, c], labels == c) for c in range(k)])
    return aucs, float(aucs.mean())


def kfold_split(labels, k=5, seed=0):
    """Fold id per sample, stratified: per-class fold sizes stay within 1."""
    labels = np.asarray(labels, dtype=np.int64)
    if k < 2:
        raise ValueError("need at least 2 folds")
    folds = np.empty(labels.size, dtype=np.int64)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed)])))
    for c in np.unique(labels):  # sorted, so the draw order is fixed
        idx = np.nonzero(labels == c)[0]
        if idx.size < k:
            raise TooFewSamples(f"class {c} has {idx.size} samples for {k} folds")
        perm = rng.permutation(idx.size)
        folds[idx[perm]] = np.arange(idx.size) % k
    return folds


def evaluate_probs(probs, actual, fold_id=None):
    """Full report from probability rows: argmax labels, rates, OvR AUCs."""
    probs = np.asarray(probs, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.int64)
    k = probs.shape[1]
    predicted = probs.argmax(axis=1)
    report = precision_recall_f1(confusion_matrix(predicted, actual, k))
    report.fold_id = fold_id
    try:
        aucs, macro = macro_auc_ovr(probs, actual, k)
    except (MissingClass, SingleClassInput):
        return report
    report.auc = aucs
    report.macro_auc = macro
    report.roc_points = [roc_curve(probs[:, c], actual == c)[0] for c in range(k)]
    return report


# -------------------------------------------------------------- rendering

def report_csv(report: EvalReport, class_names):
    k = report.matrix.k
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["class", "support", "recall", "precision", "f1",
                "precision_undefined", "auc_ovr"])
    support = report.matrix.actual_support()
    for i in range(k):
        auc = "" if report.auc is None else repr(float(report.auc[i]))
        w.writerow([class_names[i], int(support[i]), repr(float(report.recall[i])),
                    repr(float(report.precision[i])), repr(float(report.f1[i])),
                    int(report.undefined_precision[i]), auc])
    macro = "" if report.macro_auc is None else repr(report.macro_auc)
    w.writerow(["weighted", report.matrix.total(), repr(report.weighted_recall),
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

