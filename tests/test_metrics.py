import warnings

import numpy as np
import pytest

from twkit.errors import DataError
from twkit.metrics import auc_rank, compute_metrics


def brute_force_auc(scores, positives):
    scores = np.asarray(scores, dtype=float)
    positives = np.asarray(positives, dtype=bool)
    pos = scores[positives]
    neg = scores[~positives]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_auc_simple_binary():
    scores = np.array([0.9, 0.8, 0.3])
    positives = np.array([True, False, True])
    assert auc_rank(scores, positives) == pytest.approx(0.5)


def test_auc_matches_brute_force_with_ties():
    rng = np.random.default_rng(0)
    for trial in range(50):
        n = int(rng.integers(2, 200))
        # coarse grid forces plenty of ties
        scores = rng.integers(0, 10, size=n) / 10.0
        positives = rng.random(n) < 0.4
        if positives.all() or not positives.any():
            continue
        assert auc_rank(scores, positives) == pytest.approx(
            brute_force_auc(scores, positives), abs=1e-12
        )


def test_auc_needs_both_classes():
    with pytest.raises(DataError):
        auc_rank(np.array([0.1, 0.2]), np.array([True, True]))


def test_perfect_predictions():
    classes = ("a", "b", "c")
    truth = ["a", "b", "c", "a"]
    predicted = list(truth)
    scores = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
    m = compute_metrics(predicted, scores, truth, classes)
    assert m.accuracy == 1.0
    assert all(v == 1.0 for v in m.f1.values())
    assert m.macro_auc == 1.0


def test_never_predicted_class_gets_zeros():
    classes = ("a", "b")
    truth = ["a", "b", "b"]
    predicted = ["b", "b", "b"]
    scores = np.array([[0.4, 0.6], [0.3, 0.7], [0.2, 0.8]])
    m = compute_metrics(predicted, scores, truth, classes)
    assert m.precision["a"] == 0.0
    assert m.recall["a"] == 0.0
    assert m.f1["a"] == 0.0


def test_confusion_row_sums_are_supports():
    rng = np.random.default_rng(1)
    classes = tuple(range(4))
    truth = rng.integers(0, 4, size=100).tolist()
    predicted = rng.integers(0, 4, size=100).tolist()
    m = compute_metrics(predicted, None, truth, classes)
    for i, c in enumerate(classes):
        assert m.confusion[i].sum() == truth.count(c)
    assert m.accuracy == np.trace(m.confusion) / 100


def test_absent_class_excluded_with_warning():
    classes = ("a", "b", "c")
    truth = ["a", "b", "a"]
    predicted = ["a", "b", "a"]
    scores = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.7, 0.2, 0.1]])
    with pytest.warns(UserWarning, match="absent"):
        m = compute_metrics(predicted, scores, truth, classes)
    assert not np.isnan(m.macro_auc)


def test_absent_classes_share_one_warning():
    classes = ("a", "b", "c", "d")
    truth = ["a", "b", "a"]
    scores = np.full((3, 4), 0.25)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        compute_metrics(truth, scores, truth, classes)
    assert len(caught) == 1
    assert "'c'" in str(caught[0].message) and "'d'" in str(caught[0].message)


def test_length_mismatch():
    with pytest.raises(DataError):
        compute_metrics(["a"], None, ["a", "b"], ("a", "b"))


def test_macro_f1_is_unweighted_mean():
    classes = ("a", "b")
    truth = ["a", "a", "b"]
    predicted = ["a", "b", "b"]
    m = compute_metrics(predicted, None, truth, classes)
    assert m.macro_f1 == pytest.approx((m.f1["a"] + m.f1["b"]) / 2)
