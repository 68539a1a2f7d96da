import numpy as np
import pytest

from twkit.classify import (
    CLASSIFIERS,
    Forest,
    ForestConfig,
    TreeConfig,
    column_importance,
    feature_importance,
    fit_and_score,
    gini,
    train_forest,
    train_linear_svm,
    train_logreg,
    train_mlp_classifier,
    train_tree,
    tree_predict_proba,
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
        tree = train_tree(X, y, TreeConfig(n_classes=2), seed=0)
        assert tree.feature == 0
        assert tree.threshold == 3.0
        assert tree.left.is_leaf and tree.right.is_leaf
        proba = tree_predict_proba(tree, X)
        assert (np.argmax(proba, axis=1) == y).all()

    def test_single_class_is_leaf(self):
        X = np.zeros((5, 3))
        y = np.ones(5, dtype=int)
        tree = train_tree(X, y, TreeConfig(n_classes=2), seed=0)
        assert tree.is_leaf
        assert tree.counts == (0, 5)

    def test_xor_needs_depth_two(self):
        # one-hot view of two binary features
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        tree = train_tree(X, y, TreeConfig(n_classes=2), seed=0)
        proba = tree_predict_proba(tree, X)
        assert (np.argmax(proba, axis=1) == y).all()
        def depth(node):
            return 0 if node.is_leaf else 1 + max(depth(node.left), depth(node.right))
        assert depth(tree) == 2

    def test_max_depth_respected(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 4))
        y = rng.integers(0, 3, size=50)
        tree = train_tree(X, y, TreeConfig(n_classes=3, max_depth=2), seed=0)
        def depth(node):
            return 0 if node.is_leaf else 1 + max(depth(node.left), depth(node.right))
        assert depth(tree) <= 2

    def test_min_samples_leaf(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 2, size=30)
        tree = train_tree(X, y, TreeConfig(n_classes=2, min_samples_leaf=5), seed=0)
        def check(node):
            if node.is_leaf:
                assert node.n_samples >= 5 or node.n_samples == 30
            else:
                check(node.left); check(node.right)
        check(tree)

    def test_tie_break_lowest_feature(self):
        # two identical features: the split must use feature 0
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        y = np.array([0, 0, 1, 1])
        tree = train_tree(X, y, TreeConfig(n_classes=2), seed=0)
        assert tree.feature == 0


class TestForest:
    def test_degenerate_equals_single_tree(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 5))
        y = rng.integers(0, 3, size=40)
        config = ForestConfig(n_classes=3, n_trees=1, bootstrap=False, feature_subset_size=5)
        forest = train_forest(X, y, config, seed=9)
        tree = train_tree(
            X, y,
            TreeConfig(n_classes=3, feature_subset_size=5),
            seed=derive_seed(9, "tree-0"),
        )
        assert forest.trees[0] == tree

    def test_deterministic(self, corpus_200, schema):
        codec = build_codec(corpus_200, attributes=tuple(a.name for a in schema.features))
        X = encode(corpus_200, codec_source=codec).values
        y = label_indices(corpus_200)
        f1 = train_forest(X, y, ForestConfig(n_classes=7, n_trees=10), seed=3)
        f2 = train_forest(X, y, ForestConfig(n_classes=7, n_trees=10), seed=3)
        assert f1.trees == f2.trees

    def test_proba_sums_to_one(self, corpus_200, schema):
        codec = build_codec(corpus_200, attributes=tuple(a.name for a in schema.features))
        X = encode(corpus_200, codec_source=codec).values
        y = label_indices(corpus_200)
        forest = train_forest(X, y, ForestConfig(n_classes=7, n_trees=10), seed=3)
        proba = forest.predict_proba(X[:20])
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_tie_break_lowest_class(self):
        t1 = train_tree(np.zeros((1, 1)), np.array([0]), TreeConfig(n_classes=2), seed=0)
        t2 = train_tree(np.zeros((1, 1)), np.array([1]), TreeConfig(n_classes=2), seed=0)
        forest = Forest([t1, t2], [0, 0], ForestConfig(n_classes=2, n_trees=2))
        proba = forest.predict_proba(np.zeros((1, 1)))
        np.testing.assert_allclose(proba, [[0.5, 0.5]])
        assert forest.predict(np.zeros((1, 1)))[0] == 0

    def test_training_accuracy_beats_average_tree(self, corpus_200, schema):
        codec = build_codec(corpus_200, attributes=tuple(a.name for a in schema.features))
        X = encode(corpus_200, codec_source=codec).values
        y = label_indices(corpus_200)
        forest = train_forest(X, y, ForestConfig(n_classes=7, n_trees=20), seed=5)
        forest_acc = (forest.predict(X) == y).mean()
        tree_accs = [
            (np.argmax(tree_predict_proba(t, X), axis=1) == y).mean() for t in forest.trees
        ]
        assert forest_acc >= np.mean(tree_accs)


class TestImportance:
    def test_single_feature_full_weight(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0, 0, 1, 1])
        forest = train_forest(X, y, ForestConfig(n_classes=2, n_trees=5, feature_subset_size=1), seed=1)
        imp = column_importance(forest, 1)
        assert imp[0] > 0

    def test_noise_feature_ranks_below_signal(self):
        rng = np.random.default_rng(3)
        x1 = rng.integers(0, 2, size=200).astype(float)
        x2 = rng.random(200)
        y = x1.astype(int)
        X = np.column_stack([x1, x2])
        forest = train_forest(X, y, ForestConfig(n_classes=2, n_trees=20), seed=2)
        imp = column_importance(forest, 2)
        assert imp[0] > imp[1]

    def test_attribute_aggregation_sums_to_one(self, corpus_200, schema):
        codec = build_codec(corpus_200, attributes=tuple(a.name for a in schema.features))
        X = encode(corpus_200, codec_source=codec).values
        y = label_indices(corpus_200)
        forest = train_forest(X, y, ForestConfig(n_classes=7, n_trees=15), seed=4)
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
        assert (model.predict(X) == y).mean() == 1.0
        proba = model.predict_proba(X)
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
        classes = schema.class_codes
        expected = compute_metrics(
            [classes[i] for i in np.argmax(proba, axis=1)], proba,
            [classes[i] for i in label_indices(test)], classes,
        )
        assert metrics.to_dict() == expected.to_dict()
