"""Classification metrics: accuracy, per-class P/R/F1, macro one-vs-rest AUC.

AUC uses the rank statistic with tie-averaged ranks. A truth vector must hold
two classes or more; classes absent from it are excluded from the macro mean
with a warning. F1 is defined as 0 when precision and recall are both 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError


class AbsentClassWarning(UserWarning):
    """Classes with no truth rows, left out of a macro AUC."""

    def __init__(self, classes):
        self.classes = tuple(classes)
        names = ", ".join(repr(c) for c in self.classes)
        super().__init__(f"classes absent from truth, excluded from macro AUC: {names}")


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    precision: dict[object, float]
    recall: dict[object, float]
    f1: dict[object, float]
    macro_auc: float
    confusion: np.ndarray  # (k, k), rows = truth, cols = predicted
    classes: tuple

    @property
    def macro_f1(self) -> float:
        return float(np.mean(list(self.f1.values())))

    @property
    def weighted_f1(self) -> float:
        """Support-weighted mean of per-class F1; `compute_metrics` leaves no
        test set empty."""
        supports = self.confusion.sum(axis=1)
        return float(sum(self.f1[c] * supports[i] for i, c in enumerate(self.classes)) / supports.sum())

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "macro_auc": self.macro_auc,
            "macro_f1": self.macro_f1,
            "per_class": {
                str(c): {
                    "precision": self.precision[c],
                    "recall": self.recall[c],
                    "f1": self.f1[c],
                }
                for c in self.classes
            },
            "confusion": self.confusion.tolist(),
            "classes": [str(c) for c in self.classes],
        }


def _tie_averaged_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks; tied scores share the average of their rank span. A NaN
    ties with nothing, so each keeps its own place in the stable order."""
    order = np.argsort(scores, kind="stable")
    ranked = scores[order]
    starts = np.r_[True, ranked[1:] != ranked[:-1]][: len(scores)]  # where each run of ties starts
    first = starts.nonzero()[0]
    last = np.r_[first[1:], len(scores)] - 1
    ranks = np.empty(len(scores), dtype=np.float64)
    ranks[order] = (0.5 * (first + last) + 1.0)[starts.cumsum() - 1]
    return ranks


def auc_rank(scores: np.ndarray, positives: np.ndarray) -> float:
    """One-vs-rest ROC AUC by the Mann-Whitney rank statistic."""
    positives = positives.astype(bool)
    n_pos = int(positives.sum())
    n_neg = len(positives) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC needs at least one positive and one negative")
    ranks = _tie_averaged_ranks(np.asarray(scores, dtype=np.float64))
    return float((ranks[positives].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def compute_metrics(truth, scores, classes) -> Metrics:
    """Score class-probability rows against truth.

    `truth` holds each row's index into `classes`; `scores` is the (n, k)
    class-probability matrix aligned with `classes`, and each row's prediction
    is the first maximum of its scores. Fewer than two classes in `truth`
    leave the macro AUC undefined, which is a `DataError` naming them.
    """
    classes = tuple(classes)
    truth = np.asarray(truth, dtype=np.intp)
    scores = np.asarray(scores, dtype=np.float64)
    k = len(classes)
    if scores.shape != (len(truth), k):
        raise DataError(f"scores shape {scores.shape} != ({len(truth)}, {k})")
    predicted = scores.argmax(axis=1)
    confusion = np.bincount(truth * k + predicted, minlength=k * k).reshape(k, k)
    support = confusion.sum(axis=1)
    if np.count_nonzero(support) < 2:
        held = ", ".join(repr(c) for c, n in zip(classes, support) if n) or "none"
        raise DataError(f"macro AUC needs truth rows of two classes or more, got {held}")

    accuracy = float(np.trace(confusion) / confusion.sum())

    precision, recall, f1 = {}, {}, {}
    for i, c in enumerate(classes):
        tp = confusion[i, i]
        pred_c = confusion[:, i].sum()
        true_c = confusion[i, :].sum()
        p = float(tp / pred_c) if pred_c else 0.0
        r = float(tp / true_c) if true_c else 0.0
        precision[c] = p
        recall[c] = r
        f1[c] = 2.0 * p * r / (p + r) if (p + r) > 0 else 0.0

    aucs = [auc_rank(scores[:, i], truth == i) for i in support.nonzero()[0]]
    absent = [c for c, n in zip(classes, support) if not n]
    if absent:
        warnings.warn(AbsentClassWarning(absent))
    macro_auc = float(np.mean(aucs))

    return Metrics(accuracy, precision, recall, f1, macro_auc, confusion, classes)
