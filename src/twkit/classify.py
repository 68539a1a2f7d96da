"""Decision trees, random forests with Gini importance, and the companion
classifiers (softmax regression, one-hidden-layer MLP, linear one-vs-rest SVM).

All models train on the encoded feature matrix (one-hot categorical view plus
scaled numerics) and integer class indices. Categorical splits are one-vs-rest
per code, which in the one-hot view sends the rows at 0 left.

A tree builds the one-hot of its labels once and each node takes its rows of
it. The split search has two paths, chosen per column from the tree's training
matrix. For the columns that hold only 0 and 1 (every one-hot column), one
product of the node's rows of those columns with the node's one-hot labels
gives each column's class counts at 1; the counts at 0 are the node's counts
minus those. Every other column (the scaled numerics) sorts the node's values
and scans the cumulative class counts at each boundary. Both paths score
splits with the same Gini expression, so a tree does not depend on which path
scored a column, and the node keeps the best split seen so far.

Prediction routes arrays of row indices down the tree: each split visited
compares its column for the rows that reached it and sends them on to its
children, and each leaf writes its class counts for the rows that reach it.
A row's probabilities are its leaf's counts over their sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import Codec, encode, label_indices
from .errors import DataError
from .metrics import Metrics, compute_metrics
from .nn import (
    AdamState,
    MLP,
    adam_step,
    backward,
    forward,
    init_mlp,
    iter_batches,
    one_hot,
    softmax_cross_entropy,
    _sigmoid,
    _softmax,
)
from .seeds import derive_seed
from .table import Table


def gini(counts) -> float:
    """Gini impurity 1 - sum((c/n)^2) of a class-count vector.

    An integer array is used as it is, so the split search can call this on
    every node's bincount without a copy."""
    counts = np.asarray(counts)
    if counts.min(initial=0) < 0:
        raise DataError("negative class count")
    n = counts.sum()
    if n == 0:
        raise DataError("gini of an empty count vector")
    p = counts / n
    return float(1.0 - (p * p).sum())


@dataclass(frozen=True)
class TreeNode:
    """Split node (children set) or leaf (counts set)."""

    n_samples: int
    counts: tuple[int, ...]
    feature: int = -1
    threshold: float = 0.0
    decrease: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _best_split(X, Y, idx, candidates, counts, binary):
    """Max Gini-decrease split over candidate columns.

    `Y` is the one-hot of the tree's labels, `counts` the node's class counts
    and `binary` flags the columns that hold only 0 and 1 in the tree's
    training matrix. Binary candidates get their class counts for the rows at
    1 from one product, and their only split sends the 0s left. The other
    candidates scan every boundary between their sorted distinct values. Ties
    break toward the lowest feature index, then the lowest threshold.

    The stored threshold is the midpoint of the sorted values at positions r
    and r + 1, where r is the best boundary's rank among the column's
    boundaries. It is the boundary's own midpoint only when the values up to
    it are distinct; for a 0/1 column it is 0.0 when two or more rows are 0
    and 0.5 otherwise.
    """
    n = len(idx)
    parent_gini = gini(counts)
    onehot = Y[idx]
    is_binary = binary[candidates]
    # running best over candidate positions; zero-gain splits are allowed on
    # impure nodes (XOR-style patterns need them), and recursion still
    # terminates because children shrink
    best_decrease, best_c, best_threshold = -np.inf, -1, 0.0
    positions = is_binary.nonzero()[0]
    if len(positions):
        right_counts = X[idx[:, None], candidates[positions]].T @ onehot
        right_n = right_counts.sum(axis=1)
        left_n = n - right_n
        valid = np.minimum(left_n, right_n) >= 1
        if np.count_nonzero(valid):
            # rows are selected before dividing, so an empty side is never divided by
            right_counts = right_counts[valid]
            left_n = left_n[valid]
            decrease = _gini_decrease(
                parent_gini, n, counts - right_counts, right_counts, left_n, right_n[valid]
            )
            b = int(decrease.argmax())  # first max = lowest feature
            if decrease[b] >= 0:
                best_decrease = decrease[b]
                best_c = positions[valid][b]
                best_threshold = 0.0 if left_n[b] >= 2 else 0.5
    for c in (~is_binary).nonzero()[0]:
        values = X[idx, candidates[c]]
        order = values.argsort(kind="stable")
        sv = values[order]
        boundaries = (sv[1:] > sv[:-1]).nonzero()[0]  # split after position b
        if not len(boundaries):
            continue
        left_n = boundaries + 1.0
        left_counts = onehot[order].cumsum(axis=0)[boundaries]  # counts up to each boundary
        scan = _gini_decrease(parent_gini, n, left_counts, counts - left_counts, left_n, n - left_n)
        b = int(scan.argmax())  # first max = lowest threshold
        if scan[b] >= 0 and (scan[b] > best_decrease or (scan[b] == best_decrease and c < best_c)):
            best_decrease, best_c, best_threshold = scan[b], c, 0.5 * (sv[b] + sv[b + 1])
    if best_c < 0:
        return None
    f = int(candidates[best_c])
    mask = X[idx, f] <= best_threshold
    return (float(best_decrease), f, float(best_threshold), idx[mask], idx[~mask])


def _gini_decrease(parent_gini, n, left_counts, right_counts, left_n, right_n):
    """Gini decrease of each candidate split, one per row of the (splits x
    classes) count arrays. The arrays are C-contiguous, so every row sums its
    classes in the same order whichever path built it."""
    gl = 1.0 - ((left_counts / left_n[:, None]) ** 2).sum(axis=1)
    gr = 1.0 - ((right_counts / right_n[:, None]) ** 2).sum(axis=1)
    return parent_gini - (left_n / n) * gl - (right_n / n) * gr


def _build(X, Y, y, idx, subset, rng, binary):
    counts = np.bincount(y[idx], minlength=Y.shape[1])
    n_samples, node_counts = len(idx), tuple(counts.tolist())
    if np.count_nonzero(counts) <= 1:
        return TreeNode(n_samples, node_counts)
    d = X.shape[1]
    if subset < d:
        candidates = rng.choice(d, size=subset, replace=False)
        candidates.sort()
    else:
        candidates = np.arange(d)
    best = _best_split(X, Y, idx, candidates, counts, binary)
    if best is None:
        return TreeNode(n_samples, node_counts)
    decrease, f, threshold, left_idx, right_idx = best
    return TreeNode(
        n_samples,
        node_counts,
        feature=f,
        threshold=threshold,
        decrease=decrease,
        left=_build(X, Y, y, left_idx, subset, rng, binary),
        right=_build(X, Y, y, right_idx, subset, rng, binary),
    )


def train_tree(X, y, n_classes: int, subset: int, seed: int) -> TreeNode:
    """Greedy CART-style tree maximizing Gini-impurity decrease, grown until
    every leaf is pure or has no split. Each split node scores `subset`
    columns drawn without replacement, or every column when `subset` >= d."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(X) == 0:
        raise DataError("cannot train a tree on an empty dataset")
    rng = np.random.default_rng(seed)
    binary = ((X == 0) | (X == 1)).all(axis=0)
    return _build(X, one_hot(y, n_classes), y, np.arange(len(X)), subset, rng, binary)


def _route(node: TreeNode, X, rows, out) -> None:
    """Write into `out` the class counts of the leaf that each of `rows`
    reaches. Rows at or below a split's threshold go left, NaN goes right."""
    if node.is_leaf:
        out[rows] = node.counts
        return
    go_left = X[rows, node.feature] <= node.threshold
    for child, child_rows in ((node.left, rows[go_left]), (node.right, rows[~go_left])):
        if len(child_rows):
            _route(child, X, child_rows, out)


def tree_predict_proba(node: TreeNode, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    counts = np.empty((len(X), len(node.counts)))
    _route(node, X, np.arange(len(X)), counts)
    return counts / counts.sum(axis=1, keepdims=True)


FOREST_TREES = 100


@dataclass
class Forest:
    trees: list[TreeNode]
    n_classes: int

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        acc = np.zeros((len(X), self.n_classes))
        for tree in self.trees:
            acc += tree_predict_proba(tree, X)
        return acc / len(self.trees)


def train_forest(X, y, n_classes: int, seed: int) -> Forest:
    """FOREST_TREES fully grown trees, each on a bootstrap sample and scoring
    ceil(sqrt(d)) columns per split (Breiman 2001). Per-tree seeds derive from
    the master seed, so parallel or serial training would build the identical
    forest."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(X) == 0:
        raise DataError("cannot train a forest on an empty dataset")
    n, d = X.shape
    subset = int(np.ceil(np.sqrt(d)))
    trees = []
    for t in range(FOREST_TREES):
        boot = np.random.default_rng(derive_seed(seed, f"boot-{t}")).integers(0, n, size=n)
        trees.append(train_tree(X[boot], y[boot], n_classes, subset, derive_seed(seed, f"tree-{t}")))
    return Forest(trees, n_classes)


def _accumulate_importance(node: TreeNode, total_samples: int, acc: np.ndarray) -> None:
    if node.is_leaf:
        return
    acc[node.feature] += (node.n_samples / total_samples) * node.decrease
    _accumulate_importance(node.left, total_samples, acc)
    _accumulate_importance(node.right, total_samples, acc)


def column_importance(forest: Forest, n_columns: int) -> np.ndarray:
    """Mean over trees of sample-weighted impurity decrease per encoded column."""
    acc = np.zeros(n_columns)
    for tree in forest.trees:
        per_tree = np.zeros(n_columns)
        _accumulate_importance(tree, tree.n_samples, per_tree)
        acc += per_tree
    return acc / len(forest.trees)


def feature_importance(forest: Forest, codec: Codec) -> list[tuple[str, float]]:
    """Per-attribute Gini importance, one-hot columns aggregated, sum = 1.

    `codec` is the one the forest's training matrix was encoded with; the
    order follows it.
    """
    cols = column_importance(forest, codec.width)
    pairs = []
    for block in codec.blocks:
        pairs.append((block.attribute, float(cols[block.start : block.stop].sum())))
    total = sum(w for _, w in pairs)
    if total > 0:
        pairs = [(a, w / total) for a, w in pairs]
    return pairs


# -- companion classifiers ----------------------------------------------------

# Every trainer is called as (X, y, n_classes, seed), so its settings are fixed.
LOGREG_LEARNING_RATE = 0.5
LOGREG_EPOCHS = 300
LOGREG_L2 = 1e-4
MLP_HIDDEN = 64
MLP_EPOCHS = 200
MLP_BATCH_SIZE = 64
SVM_EPOCHS = 30
SVM_BATCH_SIZE = 32
SVM_LEARNING_RATE = 0.1
SVM_L2 = 1e-3
PLATT_ITERS = 200
PLATT_LEARNING_RATE = 0.1


@dataclass
class LogisticModel:
    W: np.ndarray  # (d, k)
    b: np.ndarray  # (k,)

    def predict_proba(self, X) -> np.ndarray:
        return _softmax(np.asarray(X) @ self.W + self.b)


def train_logreg(X, y, n_classes: int, seed: int = 0) -> LogisticModel:
    """Multinomial softmax regression by full-batch gradient descent (zero init)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(np.unique(y)) < 2:
        raise DataError("logistic regression needs >=2 classes in training data")
    d = X.shape[1]
    W = np.zeros((d, n_classes))
    b = np.zeros(n_classes)
    for _ in range(LOGREG_EPOCHS):
        logits = X @ W + b
        _, dlogits = softmax_cross_entropy(logits, y)
        W -= LOGREG_LEARNING_RATE * (X.T @ dlogits + LOGREG_L2 * W)
        b -= LOGREG_LEARNING_RATE * dlogits.sum(axis=0)
    return LogisticModel(W, b)


@dataclass
class MlpClassifier:
    net: MLP

    def predict_proba(self, X) -> np.ndarray:
        logits, _ = forward(self.net, np.asarray(X, dtype=np.float64))
        return _softmax(logits)


def train_mlp_classifier(X, y, n_classes: int, seed: int = 0) -> MlpClassifier:
    """One hidden relu layer, softmax head, Adam on minibatches."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(np.unique(y)) < 2:
        raise DataError("MLP classifier needs >=2 classes in training data")
    net = init_mlp((X.shape[1], MLP_HIDDEN, n_classes), seed=seed, output_activation="identity")
    state = AdamState.for_mlp(net)
    rng = np.random.default_rng(derive_seed(seed, "mlp-batches"))
    for _ in range(MLP_EPOCHS):
        for batch in iter_batches(len(X), MLP_BATCH_SIZE, rng):
            logits, cache = forward(net, X[batch])
            _, dlogits = softmax_cross_entropy(logits, y[batch])
            grads, _ = backward(net, cache, dlogits, inputs=False)
            adam_step(net, grads, state)
    return MlpClassifier(net)


@dataclass
class LinearSvm:
    W: np.ndarray  # (d, k) one-vs-rest weights
    b: np.ndarray  # (k,)
    platt: np.ndarray  # (k, 2) logistic link (a, c): p = sigmoid(a * margin + c)

    def predict_proba(self, X) -> np.ndarray:
        m = np.asarray(X) @ self.W + self.b
        p = _sigmoid(self.platt[:, 0] * m + self.platt[:, 1])
        total = p.sum(axis=1, keepdims=True)
        total[total == 0] = 1.0
        return p / total


def _fit_platt(margins: np.ndarray, targets: np.ndarray):
    a, c = 1.0, 0.0
    for _ in range(PLATT_ITERS):
        p = 1.0 / (1.0 + np.exp(-(a * margins + c)))
        grad = p - targets
        a -= PLATT_LEARNING_RATE * float((grad * margins).mean())
        c -= PLATT_LEARNING_RATE * float(grad.mean())
    return a, c


def train_linear_svm(X, y, n_classes: int, seed: int = 0) -> LinearSvm:
    """One-vs-rest linear hinge loss by stochastic subgradient descent, with a
    logistic link fitted on the margins so predict_proba is available."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(np.unique(y)) < 2:
        raise DataError("SVM needs >=2 classes in training data")
    d = X.shape[1]
    W = np.zeros((d, n_classes))
    b = np.zeros(n_classes)
    for c in range(n_classes):
        sign = np.where(y == c, 1.0, -1.0)
        rng = np.random.default_rng(derive_seed(seed, f"svm-{c}"))
        w_c = np.zeros(d)
        b_c = 0.0
        for _ in range(SVM_EPOCHS):
            for batch in iter_batches(len(X), SVM_BATCH_SIZE, rng):
                margin = sign[batch] * (X[batch] @ w_c + b_c)
                viol = margin < 1.0
                grad_w = SVM_L2 * w_c
                grad_b = 0.0
                if viol.any():
                    grad_w = grad_w - (sign[batch][viol, None] * X[batch][viol]).mean(axis=0)
                    grad_b = -float(sign[batch][viol].mean())
                w_c -= SVM_LEARNING_RATE * grad_w
                b_c -= SVM_LEARNING_RATE * grad_b
        W[:, c] = w_c
        b[c] = b_c
    platt = np.zeros((n_classes, 2))
    all_margins = X @ W + b
    for c in range(n_classes):
        platt[c] = _fit_platt(all_margins[:, c], (y == c).astype(np.float64))
    return LinearSvm(W, b, platt)


def _dt_trainer(X, y, n_classes, seed):
    return _TreeModel(train_tree(X, y, n_classes, X.shape[1], seed))


@dataclass
class _TreeModel:
    tree: TreeNode

    def predict_proba(self, X) -> np.ndarray:
        return tree_predict_proba(self.tree, X)


CLASSIFIERS = {
    "lr": train_logreg,
    "dt": _dt_trainer,
    "rf": train_forest,
    "mlp": train_mlp_classifier,
    "svm": train_linear_svm,
}


def fit_and_score(name: str, train: Table, test: Table, codec: Codec, seed: int) -> tuple[Metrics, object]:
    """Fit classifier `name` on `train` and score it on `test`, both encoded
    with `codec`. Returns the held-out metrics and the fitted model."""
    classes = train.schema.class_codes
    X_train = encode(train, codec_source=codec).values
    X_test = encode(test, codec_source=codec).values
    model = CLASSIFIERS[name](X_train, label_indices(train), len(classes), seed)
    proba = model.predict_proba(X_test)
    return compute_metrics(label_indices(test), proba, classes), model
