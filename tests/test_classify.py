import dataclasses
import warnings

import numpy as np
import pytest

from twkit import classify
from twkit.classify import (
    CLASSIFIERS,
    FOREST_TREES,
    Forest,
    TreeNode,
    _TreeModel,
    _split_nodes,
    column_importance,
    feature_importance,
    fit_and_score,
    gini,
    train_forest,
    train_linear_svm,
    train_logreg,
    train_mlp_classifier,
    train_tree,
)
from twkit.encoding import build_codec, encode, label_indices
from twkit.errors import DataError
from twkit.metrics import compute_metrics
from twkit.table import split_stratified
from twkit.seeds import derive_seed


class TestGini:
    def test_pure(self):
        assert gini([10, 0]) == 0.0

    def test_balanced_two(self):
        assert gini([5, 5]) == 0.5

    def test_uniform_four(self):
        assert gini([1, 1, 1, 1]) == 0.75

    def test_empty_raises(self):
        with pytest.raises(DataError):
            gini([0, 0])

    @pytest.mark.parametrize("counts", [[-1, 1], [3, -1], np.array([2, -2, 5])])
    def test_negative_raises(self, counts):
        with pytest.raises(DataError, match="negative"):
            gini(counts)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            counts = rng.integers(0, 30, size=5)
            if counts.sum() == 0:
                continue
            assert gini(counts) == pytest.approx(gini(counts[::-1]))


class TestTree:
    def test_threshold_split(self):
        X = np.array([[1.0], [2.0], [4.0], [5.0]])
        y = np.array([0, 0, 1, 1])
        tree = train_tree(X, y, 2, subset=1, seed=0)
        assert tree.feature == 0
        assert tree.threshold == 3.0
        assert tree.left.is_leaf and tree.right.is_leaf
        proba = _TreeModel(tree).predict_proba(X)
        assert (np.argmax(proba, axis=1) == y).all()

    def test_single_class_is_leaf(self):
        X = np.zeros((5, 3))
        y = np.ones(5, dtype=int)
        tree = train_tree(X, y, 2, subset=3, seed=0)
        assert tree.is_leaf
        assert tree.counts == (0, 5)

    def test_xor_needs_depth_two(self):
        # one-hot view of two binary features
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        tree = train_tree(X, y, 2, subset=2, seed=0)
        proba = _TreeModel(tree).predict_proba(X)
        assert (np.argmax(proba, axis=1) == y).all()
        assert _depth(tree) == 2

    @pytest.mark.parametrize("labels", [[0, 1, 2], [0, -1, 1]])
    def test_label_out_of_range_rejected(self, labels):
        with pytest.raises(DataError, match="class indices"):
            train_tree(np.zeros((3, 1)), np.array(labels), 2, subset=1, seed=0)

    def test_tie_break_lowest_feature(self):
        # two identical features: the split must use feature 0
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        y = np.array([0, 0, 1, 1])
        tree = train_tree(X, y, 2, subset=2, seed=0)
        assert tree.feature == 0


def _reference_best_split(X, y, idx, candidates, n_classes):
    """The split search before the count-based path: one stable-argsort
    cumsum scan per candidate column, one node at a time. The oracle for
    `_split_nodes`."""
    parent_counts = np.bincount(y[idx], minlength=n_classes)
    n = len(idx)
    parent_gini = gini(parent_counts)
    best = None  # (decrease, feature, threshold, left_idx, right_idx)
    for f in candidates:
        values = X[idx, f]
        order = np.argsort(values, kind="stable")
        sv = values[order]
        sy = y[idx][order]
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), sy] = 1.0
        cum = onehot.cumsum(axis=0)
        boundaries = np.nonzero(sv[1:] > sv[:-1])[0]
        if len(boundaries) == 0:
            continue
        left_n = boundaries + 1.0
        right_n = n - left_n
        left_counts = cum[boundaries]
        right_counts = parent_counts - left_counts
        gl = 1.0 - ((left_counts / left_n[:, None]) ** 2).sum(axis=1)
        gr = 1.0 - ((right_counts / right_n[:, None]) ** 2).sum(axis=1)
        decrease = parent_gini - (left_n / n) * gl - (right_n / n) * gr
        b = int(np.argmax(decrease))
        if decrease[b] < 0:
            continue
        if best is None or decrease[b] > best[0]:
            threshold = 0.5 * (sv[b] + sv[b + 1])
            mask = values <= threshold
            best = (float(decrease[b]), int(f), float(threshold), idx[mask], idx[~mask])
    return best


@dataclasses.dataclass(frozen=True)
class _Node:
    """A linked node of `_reference_tree`, with the field names of `TreeNode`."""

    n_samples: int
    counts: tuple[int, ...]
    feature: int = -1
    threshold: float = 0.0
    decrease: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self):
        return self.left is None


def _preorder(tree):
    """(n_samples, counts, feature, threshold, decrease) of every node of a
    tree, in pre-order: two trees are equal when these lists are."""
    return [(node.n_samples, node.counts, node.feature, node.threshold, node.decrease) for node in _walk(tree)]


def _walk(tree):
    """A tree's nodes in pre-order."""
    return [tree] if tree.is_leaf else [tree] + _walk(tree.left) + _walk(tree.right)


def _depth(tree):
    """The most splits on a path from the root to a leaf."""
    return 0 if tree.is_leaf else 1 + max(_depth(tree.left), _depth(tree.right))


def _reference_tree(X, y, n_classes, subset, seed):
    """`train_tree` built on `_reference_best_split` as linked `_Node`s,
    drawing candidates in the same pre-order."""
    X = np.asarray(X, dtype=np.float64)
    rng = np.random.default_rng(seed)

    def build(idx):
        counts = np.bincount(y[idx], minlength=n_classes)
        kwargs = dict(n_samples=len(idx), counts=tuple(int(c) for c in counts))
        if (counts > 0).sum() <= 1:
            return _Node(**kwargs)
        d = X.shape[1]
        if subset < d:
            candidates = np.sort(rng.choice(d, size=subset, replace=False))
        else:
            candidates = np.arange(d)
        best = _reference_best_split(X, y, idx, candidates, n_classes)
        if best is None:
            return _Node(**kwargs)
        decrease, f, threshold, left_idx, right_idx = best
        return _Node(
            **kwargs, feature=f, threshold=threshold, decrease=decrease,
            left=build(left_idx), right=build(right_idx),
        )

    return build(np.arange(len(X)))


def _mixed_matrix(rng, n):
    """0/1 columns of several densities, real columns with repeated values,
    constant columns and exact duplicates of both kinds."""
    binary = [(rng.random(n) < p).astype(float) for p in (0.02, 0.1, 0.3, 0.5, 0.8, 0.97)]
    real = [np.round(rng.random(n), 1), rng.normal(size=n), np.round(rng.random(n) * 3) / 3]
    constant = [np.zeros(n), np.ones(n), np.full(n, 0.25)]
    columns = binary + real + constant + [binary[2], real[0]]
    order = rng.permutation(len(columns))
    return np.column_stack([columns[i] for i in order])


class TestSplitSearchOracle:
    @pytest.mark.parametrize("n_classes", [2, 7, 9])
    @pytest.mark.parametrize("stream", [1, 2])  # two independent draws per class count
    def test_matches_sort_and_scan(self, n_classes, stream):
        # the five nodes of each matrix go through one batched search, as the
        # nodes of one grower step do, so they share one candidate count
        rng = np.random.default_rng(1000 * n_classes + stream)
        checked = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(40):
                n_rows = int(rng.integers(2, 80))
                X = _mixed_matrix(rng, n_rows)
                y = rng.integers(0, int(rng.integers(1, n_classes + 1)), size=n_rows)
                binary = ((X == 0) | (X == 1)).all(axis=0)
                size = int(rng.integers(1, X.shape[1] + 1))
                nodes = [np.sort(rng.choice(n_rows, size=int(rng.integers(1, n_rows + 1)), replace=False))
                         for _ in range(5)]
                candidates = np.sort([rng.choice(X.shape[1], size=size, replace=False) for _ in nodes], axis=1)
                counts = np.array([np.bincount(y[idx], minlength=n_classes) for idx in nodes])
                node = np.repeat(np.arange(len(nodes)), [len(idx) for idx in nodes])
                feature, threshold, decrease, order, n_left = _split_nodes(
                    X, y, binary, np.concatenate(nodes), node, candidates, counts
                )
                # the split nodes' rows, node after node, left rows first
                at = 0
                for i, idx in enumerate(nodes):
                    want = _reference_best_split(X, y, idx, candidates[i], n_classes)
                    assert (feature[i] < 0) == (want is None)
                    if want is None:
                        assert n_left[i] == 0
                        continue
                    assert (float(decrease[i]), int(feature[i]), float(threshold[i])) == want[:3]
                    middle, at = at + n_left[i], at + len(idx)
                    np.testing.assert_array_equal(order[at - len(idx):middle], want[3])
                    np.testing.assert_array_equal(order[middle:at], want[4])
                    checked += 1
                assert at == len(order)
        assert checked > 50

    @pytest.mark.parametrize("subset, bootstrap", [(None, False), (7, False), (7, True), (3, True)])
    def test_corpus_trees_match(self, corpus_200, schema, subset, bootstrap):
        codec = build_codec(corpus_200, attributes=tuple(a.name for a in schema.features))
        X = encode(corpus_200, codec_source=codec).values
        y = label_indices(corpus_200)
        if bootstrap:
            boot = np.random.default_rng(11).integers(0, len(X), size=len(X))
            X, y = X[boot], y[boot]
        subset = subset or X.shape[1]  # None: every column
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in range(3):
                assert _preorder(train_tree(X, y, 7, subset, seed=seed)) == _preorder(_reference_tree(X, y, 7, subset, seed))


# PCG64's 128-bit LCG multiplier: a step takes the state to state * MULT + inc.
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _zero_raw(seed, h, at):
    """A PCG64 on `seed` whose raw output number `at` (from 0) is 0. Its
    state after that step is (h << 64) | h with h < 2**58, so the output
    rotation (the top 6 bits) is 0 and the high and low halves cancel; the
    state is walked back from there one step at a time."""
    bit_generator = np.random.PCG64(seed)
    state = bit_generator.state
    inc = state["state"]["inc"]
    value = (h << 64) | h
    for _ in range(at + 1):
        value = (value - inc) * pow(PCG64_MULTIPLIER, -1, 2**128) % 2**128
    state["state"]["state"] = value
    bit_generator.state = state
    return bit_generator


class TestCandidateDraws:
    """`_CandidateDraws` against numpy's own `choice`, node by node."""

    @pytest.mark.parametrize("d, s", [(43, 7), (49, 7), (10, 4), (12, 3), (2, 1), (9, 1), (5, 4), (30, 29), (2**31 + 5, 3)])
    def test_matches_sorted_choice(self, d, s):
        # five trees per seed draw as the grower's steps do: every step some
        # trees skip (a pure node draws nothing) and each tree stops after
        # its own node count, most after a block refill
        for seed in range(12):
            plan = np.random.default_rng(seed)
            nodes = plan.integers(1, 3 * classify.DRAW_BLOCK_NODES, size=5)
            assert (nodes > classify.DRAW_BLOCK_NODES).any()
            seeds = [derive_seed(seed, f"tree-{t}") for t in range(5)]
            draws = classify._CandidateDraws([np.random.PCG64(x) for x in seeds], d, s)
            rngs = [np.random.default_rng(x) for x in seeds]
            while nodes.any():
                trees = ((nodes > 0) & (plan.random(5) < 0.7)).nonzero()[0]
                if len(trees):
                    want = [np.sort(rngs[t].choice(d, size=s, replace=False)) for t in trees.tolist()]
                    np.testing.assert_array_equal(draws.draw(trees), want)
                    nodes[trees] -= 1

    @pytest.mark.parametrize("d, s", [(43, 7), (10, 4), (12, 3)])
    @pytest.mark.parametrize("node", [0, 2])
    def test_rejected_words_match_choice(self, d, s, node):
        # both halves of one of tree 0's raw words are 0: they are the first
        # two words of its node `node`, and Lemire's draw in [0, d - s]
        # rejects both, so that node takes two more words than 2s - 1 and
        # every later node of tree 0 reads its words two later, beside trees
        # without a rejection
        at = node * (2 * s - 1) // 2  # the raw word that holds the node's first 32-bit word
        for h in (0, 12345, 2**58 - 1):
            assert _zero_raw(h, h, at).random_raw(at + 1)[at] == 0
            bit_generators = [_zero_raw(h, h, at)] + [np.random.PCG64(h + t) for t in range(1, 4)]
            rngs = [np.random.Generator(_zero_raw(h, h, at))] + [np.random.default_rng(h + t) for t in range(1, 4)]
            draws = classify._CandidateDraws(bit_generators, d, s)
            for step in range(2 * classify.DRAW_BLOCK_NODES):
                np.testing.assert_array_equal(
                    draws.draw(np.arange(4)), [np.sort(rng.choice(d, size=s, replace=False)) for rng in rngs]
                )


def _reference_predict_proba(tree, X):
    """The per-row walk: each row follows the splits to its leaf one
    comparison at a time. The oracle for a tree's `Forest.predict_proba`,
    and the per-tree prediction of these tests."""
    X = np.asarray(X, dtype=np.float64)
    out = np.empty((len(X), len(tree.counts)))
    for i, row in enumerate(X):
        node = tree
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        counts = np.asarray(node.counts, dtype=np.float64)
        out[i] = counts / counts.sum()
    return out


def _splits(tree):
    """(feature, threshold) of every split node, in pre-order."""
    if tree.is_leaf:
        return []
    return [(tree.feature, tree.threshold)] + _splits(tree.left) + _splits(tree.right)


def _trees(forest):
    """A store's trees as root `TreeNode` views, in tree order."""
    return [TreeNode(forest, int(root)) for root in forest.trees]


def _same_store(a, b):
    return all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name)) and getattr(a, f.name).dtype == getattr(b, f.name).dtype
        for f in dataclasses.fields(Forest)
    )


@pytest.fixture(scope="module")
def corpus_forest(corpus_200, schema):
    """corpus_200's feature codec, matrix and labels, and the seed-3 forest on
    them: one fit shared by every test that reads a forest."""
    codec = build_codec(corpus_200, attributes=tuple(a.name for a in schema.features))
    X = encode(corpus_200, codec_source=codec).values
    y = label_indices(corpus_200)
    return codec, X, y, train_forest(X, y, 7, seed=3)


class TestPredictionOracle:
    @pytest.fixture(scope="class")
    def encoded(self, corpus_200, schema):
        codec = build_codec(corpus_200, attributes=tuple(a.name for a in schema.features))
        return encode(corpus_200, codec_source=codec).values, label_indices(corpus_200)

    @pytest.mark.parametrize("subset, bootstrap", [(None, False), (7, False), (7, True)])
    def test_corpus_trees(self, encoded, subset, bootstrap):
        X, y = encoded
        rows = np.random.default_rng(5).permutation(len(X))
        X_fit, y_fit = X, y
        if bootstrap:
            boot = np.random.default_rng(11).integers(0, len(X), size=len(X))
            X_fit, y_fit = X[boot], y[boot]
        subset = subset or X.shape[1]  # None: every column
        for seed in range(3):
            tree = train_tree(X_fit, y_fit, 7, subset, seed=seed)
            assert not tree.is_leaf
            for X_test in (X, X[rows[:37]], X[:1]):
                assert np.array_equal(_TreeModel(tree).predict_proba(X_test), _reference_predict_proba(tree, X_test))

    def test_bootstrap_forest(self, corpus_forest):
        _, X, _, forest = corpus_forest
        want = np.zeros((len(X), 7))
        for tree in _trees(forest):
            want += _reference_predict_proba(tree, X)
        assert np.array_equal(forest.predict_proba(X), want / len(forest.trees))

    def test_single_leaf_tree(self):
        tree = train_tree(np.zeros((4, 2)), np.array([2, 2, 2, 2]), 3, subset=2, seed=0)
        assert tree.is_leaf
        X = np.array([[0.0, 0.0], [5.0, -1.0], [np.nan, 1.0]])
        got = _TreeModel(tree).predict_proba(X)
        assert np.array_equal(got, _reference_predict_proba(tree, X))
        assert np.array_equal(got, np.tile([0.0, 0.0, 1.0], (3, 1)))

    def test_zero_rows(self, corpus_forest):
        _, X, y, forest = corpus_forest
        tree = train_tree(X, y, 7, subset=X.shape[1], seed=0)
        empty = np.empty((0, X.shape[1]))
        got = _TreeModel(tree).predict_proba(empty)
        assert got.shape == (0, 7)
        assert np.array_equal(got, _reference_predict_proba(tree, empty))
        assert forest.predict_proba(empty).shape == (0, 7)

    def test_rows_equal_to_stored_thresholds(self, encoded):
        X, y = encoded
        tree = train_tree(X, y, 7, subset=7, seed=1)
        rows = []
        for i, (feature, threshold) in enumerate(_splits(tree)):
            row = X[i % len(X)].copy()
            row[feature] = threshold
            rows.append(row)
        X_test = np.array(rows)
        assert np.array_equal(_TreeModel(tree).predict_proba(X_test), _reference_predict_proba(tree, X_test))
        # a row at a threshold goes left and NaN goes right
        stump = TreeNode(Forest(
            trees=np.array([0]), n_samples=np.array([2, 1, 1]), counts=np.array([[1, 1], [1, 0], [0, 1]]),
            feature=np.array([0, -1, -1]), threshold=np.array([0.5, 0.0, 0.0]), decrease=np.zeros(3),
            right=np.array([2, -1, -1]),
        ), 0)
        X_stump = np.array([[0.5], [np.nextafter(0.5, 1.0)], [np.nan], [-np.inf]])
        want = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(_reference_predict_proba(stump, X_stump), want)
        assert np.array_equal(_TreeModel(stump).predict_proba(X_stump), want)

    def test_rows_with_nan(self, encoded):
        X, y = encoded
        tree = train_tree(X, y, 7, subset=X.shape[1], seed=2)
        X_test = X[:40].copy()
        rng = np.random.default_rng(4)
        X_test[rng.random(X_test.shape) < 0.3] = np.nan
        X_test[0] = np.nan
        assert np.array_equal(_TreeModel(tree).predict_proba(X_test), _reference_predict_proba(tree, X_test))


class TestThresholdRankFault:
    """The stored threshold is the midpoint at the best boundary's rank among
    the boundaries, not at its position, so with repeated values a node splits
    below the split it scored. Kept so that tree outputs stay fixed; fixing it
    is a declared numeric change, which turns this into a passing test."""

    @pytest.mark.xfail(strict=True, reason="threshold taken at the boundary's rank, not its position")
    def test_stores_the_split_it_scored(self):
        X = np.array([[0.0], [0.0], [0.0], [0.5], [0.5], [1.0], [1.0]])
        y = np.array([0, 0, 0, 0, 0, 1, 1])
        tree = train_tree(X, y, 2, subset=1, seed=0)
        assert tree.threshold == 0.75
        assert (tree.left.n_samples, tree.right.n_samples) == (5, 2)


class TestForest:
    def test_fixed_shape(self, corpus_forest):
        # FOREST_TREES trees, tree t grown on the boot-{t} sample with the
        # tree-{t} seed and ceil(sqrt(d)) candidate columns per split; the
        # single tree of "dt" scores every column
        _, X, y, forest = corpus_forest
        n, d = X.shape
        subset = int(np.ceil(np.sqrt(d)))
        assert FOREST_TREES == 100 and len(forest.trees) == FOREST_TREES
        assert subset < d
        for t, tree in enumerate(_trees(forest)):
            boot = np.random.default_rng(derive_seed(3, f"boot-{t}")).integers(0, n, size=n)
            assert _preorder(tree) == _preorder(train_tree(X[boot], y[boot], 7, subset, derive_seed(3, f"tree-{t}")))
        assert _preorder(CLASSIFIERS["dt"](X, y, 7, 9).tree) == _preorder(train_tree(X, y, 7, subset=d, seed=9))

    def test_trees_match_reference(self, corpus_forest):
        # the lockstep grower against the one-node-at-a-time oracle, tree by
        # tree: tree t's nodes are stored contiguously, in the oracle's
        # pre-order, a split's right child linked after its left subtree
        _, X, y, forest = corpus_forest
        n, d = X.shape
        subset = int(np.ceil(np.sqrt(d)))
        assert forest.trees[0] == 0
        for t, tree in enumerate(_trees(forest)):
            boot = np.random.default_rng(derive_seed(3, f"boot-{t}")).integers(0, n, size=n)
            want = _reference_tree(X[boot], y[boot], 7, subset, derive_seed(3, f"tree-{t}"))
            assert _preorder(tree) == _preorder(want)
            assert _store_slice(forest, t) == _flatten(want)

    def test_views_read_the_store(self, corpus_forest):
        # the pre-order walk of each tree's root view visits the tree's store
        # slice node by node, every field read in place, and a leaf view has
        # no children
        _, _, _, forest = corpus_forest
        for t, root in enumerate(forest.trees.tolist()):
            view, stored = TreeNode(forest, root), _store_slice(forest, t)
            assert [node.index for node in _walk(view)] == list(range(root, root + len(stored)))
            assert _flatten(view) == stored
            assert all(node.left is None and node.right is None for node in _walk(view) if node.is_leaf)

    def test_deterministic(self, corpus_forest):
        _, X, y, forest = corpus_forest
        assert _same_store(train_forest(X, y, 7, seed=3), forest)

    def test_batch_cap_does_not_change_trees(self, corpus_forest, monkeypatch):
        # with a cap of a few rows each step runs in many batches, and every
        # node larger than the cap goes alone
        _, X, y, forest = corpus_forest
        monkeypatch.setattr(classify, "GROW_BATCH_ROWS", 6)
        assert _same_store(train_forest(X, y, 7, seed=3), forest)

    def test_stacks_grow_past_their_first_depth(self, corpus_forest, monkeypatch):
        # a stack that starts with room for one entry must grow at its tree's
        # first split and again as the tree deepens (it holds up to depth + 1
        # entries); the tree and its stored layout stay those of the
        # one-node-at-a-time oracle
        _, X, y, forest = corpus_forest
        monkeypatch.setattr(classify, "GROW_STACK_DEPTH", 1)
        want = _reference_tree(X, y, 7, X.shape[1], 9)
        assert _depth(want) >= 4
        tree = train_tree(X, y, 7, X.shape[1], seed=9)
        assert _preorder(tree) == _preorder(want)
        assert _store_slice(tree.store, 0) == _flatten(want)
        assert _same_store(train_forest(X, y, 7, seed=3), forest)

    def test_proba_sums_to_one(self, corpus_forest):
        _, X, _, forest = corpus_forest
        proba = forest.predict_proba(X[:20])
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_tie_break_lowest_class(self):
        # two one-leaf trees, one voting for each class
        forest = Forest(
            trees=np.array([0, 1]), n_samples=np.array([1, 1]), counts=np.array([[1, 0], [0, 1]]),
            feature=np.array([-1, -1]), threshold=np.zeros(2), decrease=np.zeros(2), right=np.array([-1, -1]),
        )
        assert [(t.counts, t.is_leaf) for t in _trees(forest)] == [((1, 0), True), ((0, 1), True)]
        proba = forest.predict_proba(np.zeros((1, 1)))
        np.testing.assert_allclose(proba, [[0.5, 0.5]])
        assert np.argmax(proba, axis=1)[0] == 0

    def test_training_accuracy_beats_average_tree(self, corpus_forest):
        _, X, y, forest = corpus_forest
        forest_acc = (np.argmax(forest.predict_proba(X), axis=1) == y).mean()
        tree_accs = [
            (np.argmax(_reference_predict_proba(t, X), axis=1) == y).mean() for t in _trees(forest)
        ]
        assert forest_acc >= np.mean(tree_accs)


def _store_slice(forest, t):
    """Tree t's nodes as stored, each as (n_samples, counts, feature,
    threshold, decrease, right child's index in the tree or -1)."""
    start = int(forest.trees[t])
    stop = int(forest.trees[t + 1]) if t + 1 < len(forest.trees) else len(forest.feature)
    right = forest.right[start:stop]
    stored = zip(forest.n_samples[start:stop].tolist(), map(tuple, forest.counts[start:stop].tolist()),
                 forest.feature[start:stop].tolist(), forest.threshold[start:stop].tolist(),
                 forest.decrease[start:stop].tolist(), np.where(right >= 0, right - start, -1).tolist())
    return list(stored)


def _flatten(tree):
    """A tree's nodes in pre-order, each as (n_samples, counts, feature,
    threshold, decrease, right child's pre-order index or -1)."""
    nodes = []

    def visit(node):
        i = len(nodes)
        nodes.append([node.n_samples, node.counts, node.feature, node.threshold, node.decrease, -1])
        if not node.is_leaf:
            visit(node.left)
            nodes[i][5] = len(nodes)
            visit(node.right)

    visit(tree)
    return [tuple(node) for node in nodes]


def _reference_forest_proba(trees, X):
    """Forest prediction before the node store: each tree walks the rows on
    its own, and the trees' probabilities are added in tree order. The oracle
    for `Forest.predict_proba`."""
    acc = np.zeros((len(X), len(trees[0].counts)))
    for tree in trees:
        acc += _reference_predict_proba(tree, X)
    return acc / len(trees)


def _reference_importance(trees, n_columns):
    """`column_importance` before the node store: a pre-order recursion
    adds each split's sample-weighted decrease to its tree's sums, and the
    trees' sums are added in tree order. The oracle for the bincount."""

    def accumulate(node, total_samples, acc):
        if node.is_leaf:
            return
        acc[node.feature] += (node.n_samples / total_samples) * node.decrease
        accumulate(node.left, total_samples, acc)
        accumulate(node.right, total_samples, acc)

    acc = np.zeros(n_columns)
    for tree in trees:
        per_tree = np.zeros(n_columns)
        accumulate(tree, tree.n_samples, per_tree)
        acc += per_tree
    return acc / len(trees)


class TestForestStore:
    @pytest.mark.parametrize("rows", ["all", "nan", "one", "one_nan", "none"])
    def test_predict_matches_linked_trees(self, corpus_forest, rows):
        _, X, _, forest = corpus_forest
        X_nan = X.copy()
        X_nan[np.random.default_rng(8).random(X.shape) < 0.3] = np.nan
        X_nan[0] = np.nan
        X_test = {"all": X, "nan": X_nan, "one": X[5:6], "one_nan": X_nan[:1], "none": X[:0]}[rows]
        got = forest.predict_proba(X_test)
        assert got.shape == (len(X_test), 7)
        assert np.array_equal(got, _reference_forest_proba(_trees(forest), X_test))

    def test_importance_matches_recursion(self, corpus_forest):
        _, X, _, forest = corpus_forest
        d = X.shape[1]
        assert np.array_equal(column_importance(forest, d), _reference_importance(_trees(forest), d))
        rng = np.random.default_rng(3)
        X2 = np.column_stack([rng.integers(0, 2, size=120).astype(float), rng.random(120), rng.random(120)])
        y2 = (X2[:, 0] + (X2[:, 1] > 0.7)).astype(int)
        small = train_forest(X2, y2, 3, seed=5)
        assert np.array_equal(column_importance(small, 3), _reference_importance(_trees(small), 3))

    def test_one_column_forest_adds_trees_in_order(self):
        # a one-column importance sums a (trees, 1) array, which
        # ndarray.sum(axis=0) adds pairwise, and these bits then move
        rng = np.random.default_rng(0)
        X, y = rng.normal(size=(60, 1)), rng.integers(0, 3, size=60)
        forest = train_forest(X, y, 3, seed=1)
        trees = _trees(forest)
        assert column_importance(forest, 1).tobytes() == _reference_importance(trees, 1).tobytes()
        assert forest.predict_proba(X).tobytes() == _reference_forest_proba(trees, X).tobytes()

    def test_one_class_forest_one_row_adds_trees_in_order(self):
        # a one-row prediction from a one-class forest sums a (trees, 1, 1)
        # array, the other shape that ndarray.sum(axis=0) adds pairwise; each
        # tree gives exactly 1.0 there, so this sum is exact in any order
        X = np.random.default_rng(1).normal(size=(10, 2))
        forest = train_forest(X, np.zeros(10, dtype=int), 1, seed=2)
        trees = _trees(forest)
        assert forest.predict_proba(X[:1]).tobytes() == _reference_forest_proba(trees, X[:1]).tobytes()
        assert column_importance(forest, 2).tobytes() == _reference_importance(trees, 2).tobytes()

    @pytest.mark.parametrize("cap", [None, 64])
    def test_batches_stay_under_the_cap(self, corpus_forest, monkeypatch, cap):
        # the split search's (rows x candidates) arrays stay bounded: a batch
        # holds at most GROW_BATCH_ROWS rows unless it is a single node
        _, X, y, forest = corpus_forest
        if cap is not None:
            monkeypatch.setattr(classify, "GROW_BATCH_ROWS", cap)
        searched = []
        split_nodes = classify._split_nodes

        def recording(X, y, binary, rows, node, candidates, counts):
            searched.append((len(rows), len(candidates)))
            return split_nodes(X, y, binary, rows, node, candidates, counts)

        monkeypatch.setattr(classify, "_split_nodes", recording)
        assert _same_store(train_forest(X, y, 7, seed=3), forest)
        cap = classify.GROW_BATCH_ROWS
        assert all(rows <= cap or nodes == 1 for rows, nodes in searched)
        assert any(nodes > 1 for _, nodes in searched)
        if cap < len(X):
            assert any(rows > cap for rows, _ in searched)


class TestImportance:
    def test_single_feature_full_weight(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0, 0, 1, 1])
        forest = train_forest(X, y, 2, seed=1)
        imp = column_importance(forest, 1)
        assert imp[0] > 0

    def test_noise_feature_ranks_below_signal(self):
        rng = np.random.default_rng(3)
        x1 = rng.integers(0, 2, size=200).astype(float)
        x2 = rng.random(200)
        y = x1.astype(int)
        X = np.column_stack([x1, x2])
        forest = train_forest(X, y, 2, seed=2)
        imp = column_importance(forest, 2)
        assert imp[0] > imp[1]

    def test_attribute_aggregation_sums_to_one(self, corpus_forest, schema):
        codec, _, _, forest = corpus_forest
        imp = feature_importance(forest, codec)
        assert {a for a, _ in imp} == {a.name for a in schema.features}
        assert sum(w for _, w in imp) == pytest.approx(1.0, abs=1e-9)
        assert all(w >= 0 for _, w in imp)


def _separable_blobs(n=60, seed=0):
    rng = np.random.default_rng(seed)
    X0 = rng.normal(loc=(-2, 0), scale=0.4, size=(n // 2, 2))
    X1 = rng.normal(loc=(2, 0), scale=0.4, size=(n // 2, 2))
    X = np.vstack([X0, X1])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return X, y


class TestCompanions:
    @pytest.mark.parametrize("trainer", [train_logreg, train_mlp_classifier, train_linear_svm])
    def test_separable_blobs_fit(self, trainer):
        X, y = _separable_blobs()
        model = trainer(X, y, 2, 0)
        proba = model.predict_proba(X)
        assert (np.argmax(proba, axis=1) == y).mean() == 1.0
        assert proba.shape == (len(X), 2)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("name", sorted(CLASSIFIERS))
    def test_deterministic(self, name):
        X, y = _separable_blobs(seed=4)
        m1 = CLASSIFIERS[name](X, y, 2, 7)
        m2 = CLASSIFIERS[name](X, y, 2, 7)
        np.testing.assert_array_equal(m1.predict_proba(X), m2.predict_proba(X))

    def test_logreg_symmetric_bias_near_zero(self):
        rng = np.random.default_rng(5)
        X0 = rng.normal(size=(100, 2))
        X = np.vstack([X0, -X0])
        y = np.array([0] * 100 + [1] * 100)
        model = train_logreg(X, y, 2, 0)
        assert np.abs(model.b).max() < 1e-3

    def test_single_class_rejected(self):
        X = np.zeros((5, 2))
        y = np.zeros(5, dtype=int)
        for trainer in (train_logreg, train_mlp_classifier, train_linear_svm):
            with pytest.raises(DataError):
                trainer(X, y, 2, 0)


class TestFitAndScore:
    @pytest.mark.parametrize("name", ["dt", "lr"])
    def test_scores_registry_model_on_held_out_rows(self, corpus_200, schema, name):
        train, test = split_stratified(corpus_200, 0.25, seed=1)
        codec = build_codec(train, attributes=tuple(a.name for a in schema.features))
        metrics, model = fit_and_score(name, train, test, codec, seed=3)
        X_train = encode(train, codec_source=codec).values
        X_test = encode(test, codec_source=codec).values
        expected_model = CLASSIFIERS[name](X_train, label_indices(train), 7, 3)
        proba = expected_model.predict_proba(X_test)
        np.testing.assert_array_equal(model.predict_proba(X_test), proba)
        expected = compute_metrics(label_indices(test), proba, schema.class_codes)
        assert metrics.to_dict() == expected.to_dict()
