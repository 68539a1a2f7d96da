import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twkit.errors import DataError
from twkit.metrics import _tie_averaged_ranks, auc_rank, compute_metrics


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


def _reference_tie_averaged_ranks(scores):
    """The nested-loop ranking `_tie_averaged_ranks` replaced: walk the stable
    order and give each run of equal scores the mean of its 1-based ranks."""
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores), dtype=np.float64)
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


# few distinct values, so most scores tie; NaN ties nothing, -0.0 ties 0.0
TIED_SCORES = st.lists(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 1e-300, math.inf, -math.inf, math.nan]), max_size=60
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(TIED_SCORES)
def test_tie_averaged_ranks_match_loop_bit_for_bit(scores):
    scores = np.array(scores, dtype=np.float64)
    got = _tie_averaged_ranks(scores)
    want = _reference_tie_averaged_ranks(scores)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_auc_needs_both_classes():
    with pytest.raises(DataError):
        auc_rank(np.array([0.1, 0.2]), np.array([True, True]))


def test_perfect_predictions():
    classes = ("a", "b", "c")
    truth = [0, 1, 2, 0]
    scores = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
    m = compute_metrics(truth, scores, classes)
    assert m.accuracy == 1.0
    assert all(v == 1.0 for v in m.f1.values())
    assert m.macro_auc == 1.0


def test_never_predicted_class_gets_zeros():
    classes = ("a", "b")
    truth = [0, 1, 1]
    scores = np.array([[0.4, 0.6], [0.3, 0.7], [0.2, 0.8]])  # "b" predicted for every row
    m = compute_metrics(truth, scores, classes)
    assert m.precision["a"] == 0.0
    assert m.recall["a"] == 0.0
    assert m.f1["a"] == 0.0


def test_confusion_row_sums_are_supports():
    rng = np.random.default_rng(1)
    classes = tuple(range(4))
    truth = rng.integers(0, 4, size=100).tolist()
    predicted = rng.integers(0, 4, size=100)
    m = compute_metrics(truth, np.eye(4)[predicted], classes)
    for i, c in enumerate(classes):
        assert m.confusion[i].sum() == truth.count(c)
        assert m.confusion[:, i].sum() == (predicted == i).sum()
    assert m.accuracy == np.trace(m.confusion) / 100


def test_absent_class_excluded_and_listed():
    classes = ("a", "b", "c")
    truth = [0, 1, 0]
    scores = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.7, 0.2, 0.1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # listed, not warned
        m = compute_metrics(truth, scores, classes)
    assert m.absent_classes == ("c",)
    assert m.macro_auc == 1.0


def test_absent_classes_listed_in_declared_order():
    classes = ("d", "a", "c", "b")
    truth = [1, 3, 1]
    scores = np.full((3, 4), 0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = compute_metrics(truth, scores, classes)
    assert m.confusion[:, 0].tolist() == [0, 2, 0, 1]  # ties go to the first class
    assert m.absent_classes == ("d", "c")
    assert "absent_classes" not in m.to_dict()


@pytest.mark.parametrize("truth, held", [([1, 1], "'b'"), ([], "none")])
def test_fewer_than_two_truth_classes_rejected(truth, held):
    # one class held out (a tiny test split) or none (an empty k-fold test
    # fold) leaves the macro AUC undefined, and no warning comes first
    scores = np.full((len(truth), 3), 1 / 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError) as caught:
            compute_metrics(truth, scores, ("a", "b", "c"))
    assert str(caught.value) == f"macro AUC needs truth rows of two classes or more, got {held}"


def test_length_mismatch():
    with pytest.raises(DataError, match=r"scores shape \(2, 2\) != \(1, 2\)"):
        compute_metrics([0], np.eye(2), ("a", "b"))


def test_macro_f1_is_unweighted_mean():
    classes = ("a", "b")
    truth = [0, 0, 1]
    m = compute_metrics(truth, np.eye(2)[[0, 1, 1]], classes)
    assert m.macro_f1 == pytest.approx((m.f1["a"] + m.f1["b"]) / 2)


def _reference_confusion(predicted, truth, classes):
    """The per-pair count compute_metrics replaced, over class codes."""
    index = {c: i for i, c in enumerate(classes)}
    confusion = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for t, p in zip(truth, predicted):
        confusion[index[t], index[p]] += 1
    return confusion


@pytest.mark.parametrize("seed", range(5))
def test_confusion_matches_per_pair_reference(seed):
    rng = np.random.default_rng(seed)
    classes = ("RW", "AW", "K", 3)
    n = int(rng.integers(1, 60))
    truth = rng.integers(0, 4, size=n)
    scores = rng.integers(0, 3, size=(n, 4)) / 2.0  # coarse, so rows tie
    predicted = [classes[i] for i in np.argmax(scores, axis=1)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        m = compute_metrics(truth, scores, classes)
    reference = _reference_confusion(predicted, [classes[i] for i in truth], classes)
    assert m.confusion.dtype == reference.dtype
    assert m.confusion.tolist() == reference.tolist()
