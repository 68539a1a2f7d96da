"""Decision trees, random forests with Gini importance, and the companion
classifiers (softmax regression, one-hidden-layer MLP, linear one-vs-rest SVM).

All models train on the encoded feature matrix (one-hot categorical view plus
scaled numerics) and integer class indices. Categorical splits are one-vs-rest
per code, which in the one-hot view sends the rows at 0 left.

Trees grow in lockstep: one grower serves a single tree and all of a
forest's trees. Each step takes the next pre-order node of every unfinished
tree and searches the nodes' splits together, in batches of a bounded number
of rows. Each node draws its candidate columns from its own tree's generator
in its tree's pre-order, so a tree grown beside others is the tree grown
alone. The split search has two paths, chosen per column of the training
matrix. For the columns that hold only 0 and 1 (every one-hot column), one
weighted bincount over (node, candidate, class) gives each candidate's class
counts at 1; the counts at 0 are the node's counts minus those. Every other
column (the scaled numerics) is sorted within each node and scanned at each
boundary between distinct values. Both paths score splits with the same Gini
expression, so a tree does not depend on which path scored a column.

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
    softmax_cross_entropy,
    _sigmoid,
    _softmax,
)
from .seeds import derive_seed
from .table import Table


def gini(counts) -> "float | np.ndarray":
    """Gini impurity 1 - sum((c/n)^2) of a class-count vector, or of each row
    of a (nodes x classes) count matrix.

    A vector gives a float and a matrix a float64 array, each row summing its
    classes in the same order as a vector does. An integer array is used as
    it is, so the grower passes a batch's bincount without a copy."""
    counts = np.asarray(counts)
    if counts.min(initial=0) < 0:
        raise DataError("negative class count")
    n = counts.sum(axis=-1, keepdims=True)
    if not n.all():
        raise DataError("gini of an empty count vector")
    p = counts / n
    impurity = 1.0 - (p * p).sum(axis=-1)
    return float(impurity) if counts.ndim == 1 else impurity


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


def _gini_decrease(parent_gini, n, left_counts, right_counts, left_n, right_n):
    """Gini decrease of each candidate split, one per row of the (splits x
    classes) count arrays. The arrays are C-contiguous, so every row sums its
    classes in the same order whichever path built it."""
    gl = 1.0 - ((left_counts / left_n[:, None]) ** 2).sum(axis=1)
    gr = 1.0 - ((right_counts / right_n[:, None]) ** 2).sum(axis=1)
    return parent_gini - (left_n / n) * gl - (right_n / n) * gr


def _run_starts(keys) -> np.ndarray:
    """For each element of a sorted key array, the index of the first element
    with its key."""
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    return np.maximum.accumulate(np.where(new, np.arange(len(keys)), 0))


def _count_splits(at_one, pair, counts, parent_gini, s):
    """The split of each binary (node, candidate) pair in `pair`, whose row
    of `at_one` holds its class counts at 1. Returns (pair, decrease,
    threshold, rank) for the pairs with rows on both sides; the rank is 0,
    as a 0/1 column has one boundary."""
    right_counts = at_one[pair]
    right_n = right_counts.sum(axis=1)
    n = counts.sum(axis=1)[pair // s]
    left_n = n - right_n
    valid = np.minimum(left_n, right_n) >= 1
    # rows are selected before dividing, so an empty side is never divided by
    pair, right_counts, left_n, right_n, n = pair[valid], right_counts[valid], left_n[valid], right_n[valid], n[valid]
    node = pair // s
    decrease = _gini_decrease(parent_gini[node], n, counts[node] - right_counts, right_counts, left_n, right_n)
    return pair, decrease, np.where(left_n >= 2, 0.0, 0.5), np.zeros(len(pair), dtype=np.intp)


def _scan_splits(pair, values, labels, counts, parent_gini, s):
    """The splits of the other (node, candidate) pairs, given as one entry
    per row of the node: one stable lexsort orders each pair's values (equal
    values keep row order), and a cumulative class count gives the rows left
    of every boundary between distinct values. Returns (pair, decrease,
    threshold, rank) with one element per boundary, rank being its place
    among its pair's boundaries. The threshold is taken at the rank, not at
    the boundary's position (see `_split_nodes`)."""
    k = counts.shape[1]
    order = np.lexsort((values, pair))
    pair, values, labels = pair[order], values[order], labels[order]
    before = np.zeros((len(pair) + 1, k))  # class counts before each entry
    before[np.arange(1, len(pair) + 1), labels] = 1.0
    before = before.cumsum(axis=0)
    bound = ((pair[1:] == pair[:-1]) & (values[1:] > values[:-1])).nonzero()[0]  # split after entry e
    start = _run_starts(pair)[bound]
    left_n = bound - start + 1.0
    left_counts = before[bound + 1] - before[start]
    pair = pair[bound]
    node = pair // s
    n = counts.sum(axis=1)[node]
    decrease = _gini_decrease(parent_gini[node], n, left_counts, counts[node] - left_counts, left_n, n - left_n)
    rank = np.arange(len(pair)) - _run_starts(pair)
    threshold = 0.5 * (values[start + rank] + values[start + rank + 1])
    return pair, decrease, threshold, rank


def _split_nodes(X, y, binary, rows, node, candidates, counts):
    """Best Gini-decrease split of each node in a batch, and its children.

    `X` is C-contiguous. `rows` holds the nodes' rows one node after another
    and `node` the node of each row. Row i of `candidates` holds node i's
    candidate columns in ascending order and row i of `counts` its class
    counts; `binary` flags the columns of X that hold only 0 and 1.

    Every (row, candidate) value is gathered once. One weighted bincount of
    them over (node, candidate, class) gives each binary candidate its class
    counts at 1: the weights are 1.0 and 0.0, so the sums are exact in any
    order (the other candidates' sums go unused). Its only split sends the
    0s left (`_count_splits`). The other candidates are scanned at every
    boundary between their sorted values (`_scan_splits`). The two agree on
    a 0/1 column, so a tree does not depend on which one scored it. A node
    takes its largest decrease that is at least 0 (zero-gain splits let
    XOR-style patterns split, and growth still ends because children
    shrink), with ties to the lowest candidate position, then the lowest
    threshold.

    The stored threshold is the midpoint of the sorted values at positions r
    and r + 1, where r is the best boundary's rank among the column's
    boundaries. It is the boundary's own midpoint only when the values up to
    it are distinct; for a 0/1 column it is 0.0 when two or more rows are 0
    and 0.5 otherwise.

    Returns (feature, threshold, decrease, children): feature is -1 where a
    node has no split, and children[2 * i] and children[2 * i + 1] are node
    i's left and right rows in the order of `rows`, empty when it has none.
    """
    m, s = candidates.shape
    k = counts.shape[1]
    parent_gini = gini(counts)
    labels = y[rows]
    values = X.ravel()[(rows * X.shape[1])[:, None] + candidates[node]]  # (rows, candidate positions)
    key = (node * (s * k) + labels)[:, None] + np.arange(0, s * k, k)  # ((node, position), class)
    at_one = np.bincount(key.ravel(), weights=values.ravel(), minlength=m * s * k).reshape(m * s, k)
    pair_binary = binary[candidates].ravel()  # per (node, position) pair
    options = [_count_splits(at_one, pair_binary.nonzero()[0], counts, parent_gini, s)]
    scanned = (~pair_binary).nonzero()[0]
    if len(scanned):
        # each scanned pair has one entry per row of its node, in row order
        node_sizes = np.bincount(node, minlength=m)
        sizes = node_sizes[scanned // s]
        first = (node_sizes.cumsum() - node_sizes)[scanned // s] - (sizes.cumsum() - sizes)
        entry = np.repeat(first, sizes) + np.arange(sizes.sum())
        options.append(_scan_splits(
            np.repeat(scanned, sizes), values[entry, np.repeat(scanned % s, sizes)], labels[entry],
            counts, parent_gini, s,
        ))
    pair, decrease, threshold, rank = (np.concatenate(o) for o in zip(*options))
    ok = decrease >= 0
    pair, decrease, threshold, rank = pair[ok], decrease[ok], threshold[ok], rank[ok]
    order = np.lexsort((rank, pair, -decrease, pair // s))
    best = order[_run_starts(pair[order] // s) == np.arange(len(order))]
    split = pair[best] // s
    feature = np.full(m, -1)
    feature[split] = candidates[split, pair[best] % s]
    out_threshold, out_decrease = np.zeros(m), np.zeros(m)
    out_threshold[split], out_decrease[split] = threshold[best], decrease[best]

    keep = (feature >= 0)[node]
    rows, node = rows[keep], node[keep]
    side = 2 * node + ~(X[rows, feature[node]] <= out_threshold[node])  # NaN goes right
    bounds = np.r_[0, np.bincount(side, minlength=2 * m).cumsum()].tolist()
    rows = rows[np.argsort(side, kind="stable")]
    # copies, so that a child waiting on its tree's stack does not keep the
    # whole batch's array alive
    children = [rows[a:b].copy() for a, b in zip(bounds[:-1], bounds[1:])]
    return feature, out_threshold, out_decrease, children


# The most rows one batch of the split search holds, which bounds the
# (rows x candidates) arrays it allocates. A step's nodes are cut into batches
# of at most this many rows; a node with more rows goes alone.
GROW_BATCH_ROWS = 2048


def _batches(step):
    """Cut one step's (tree, rows) nodes into runs of at most
    GROW_BATCH_ROWS rows; a node with more rows is a run of its own."""
    batch, total = [], 0
    for item in step:
        if batch and total + len(item[1]) > GROW_BATCH_ROWS:
            yield batch
            batch, total = [], 0
        batch.append(item)
        total += len(item[1])
    if batch:
        yield batch


def _grow(X, y, n_classes, subset, samples, rngs) -> list[TreeNode]:
    """Grow one tree per (sample, generator) pair, all in lockstep.

    `samples[t]` lists tree t's rows of X (with repeats, in order) and
    `rngs[t]` is its generator. Each step pops the next pre-order node of
    every unfinished tree. Its class counts come from one bincount over
    (node, class); a pure node is a leaf, and an impure one draws its
    candidates from its own tree's generator and is split by `_split_nodes`,
    or is a leaf when no split exists. A split pushes its right child, then
    its left, so each tree draws in its own pre-order and grows exactly as
    it would alone. A batch's node fields stay numpy arrays until
    `_add_preorder` turns each node into a `TreeNode` as its subtree
    completes."""
    if y.min(initial=0) < 0 or y.max(initial=0) >= n_classes:
        raise DataError(f"class indices must lie in [0, {n_classes})")
    d = X.shape[1]
    binary = ((X == 0) | (X == 1)).all(axis=0)
    stacks = [[sample] for sample in samples]
    waiting = [[] for _ in samples]
    roots = [None] * len(samples)
    active = list(range(len(samples)))
    while active:
        for batch in _batches([(t, stacks[t].pop()) for t in active]):
            m = len(batch)
            trees = np.array([t for t, _ in batch])
            sizes = np.array([len(rows) for _, rows in batch])
            rows = np.concatenate([rows for _, rows in batch])
            node = np.repeat(np.arange(m), sizes)
            counts = np.bincount(node * n_classes + y[rows], minlength=m * n_classes).reshape(m, n_classes)
            feature, threshold, decrease = np.full(m, -1), np.zeros(m), np.zeros(m)
            impure = np.count_nonzero(counts, axis=1) > 1
            if impure.any():
                impure_trees = trees[impure].tolist()
                if subset < d:
                    candidates = np.array([rngs[t].choice(d, size=subset, replace=False) for t in impure_trees])
                    candidates.sort(axis=1)
                else:
                    candidates = np.broadcast_to(np.arange(d), (len(impure_trees), d))
                keep = impure[node]
                searched = impure.nonzero()[0]
                f, thr, dec, children = _split_nodes(
                    X, y, binary, rows[keep], (impure.cumsum() - 1)[node[keep]], candidates, counts[searched]
                )
                feature[searched], threshold[searched], decrease[searched] = f, thr, dec
                for i, (t, split) in enumerate(zip(impure_trees, (f >= 0).tolist())):
                    if split:
                        stacks[t].append(children[2 * i + 1])
                        stacks[t].append(children[2 * i])
            for t, n, c, f, thr, dec in zip(trees.tolist(), sizes.tolist(), counts.tolist(), feature.tolist(),
                                            threshold.tolist(), decrease.tolist()):
                root = _add_preorder(waiting[t], n, tuple(c), f, thr, dec)
                if root is not None:
                    roots[t] = root
        active = [t for t in active if stacks[t]]
    return roots


def _add_preorder(waiting, n_samples, counts, feature, threshold, decrease) -> TreeNode | None:
    """Add a tree's next node in pre-order; feature -1 marks a leaf.

    `waiting` holds the tree's splits whose subtrees are not complete, each
    as [fields, left child or None]. A split waits. A leaf is complete, and
    each complete node becomes the left child of the innermost waiting
    split, or its right child, which completes that split in turn. Returns
    the root once the tree is complete, else None."""
    if feature >= 0:
        waiting.append([(n_samples, counts, feature, threshold, decrease), None])
        return None
    done = TreeNode(n_samples, counts)
    while waiting:
        fields, left = waiting[-1]
        if left is None:
            waiting[-1][1] = done
            return None
        waiting.pop()
        done = TreeNode(*fields, left, done)
    return done


def train_tree(X, y, n_classes: int, subset: int, seed: int) -> TreeNode:
    """Greedy CART-style tree maximizing Gini-impurity decrease, grown until
    every leaf is pure or has no split. Each split node scores `subset`
    columns drawn without replacement, or every column when `subset` >= d."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(X) == 0:
        raise DataError("cannot train a tree on an empty dataset")
    (tree,) = _grow(X, y, n_classes, subset, [np.arange(len(X))], [np.random.default_rng(seed)])
    return tree


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
    ceil(sqrt(d)) columns per split (Breiman 2001). Tree t draws its sample
    from the boot-{t} seed and its candidates from the tree-{t} seed, both
    derived from the master seed. The trees grow in lockstep (`_grow`), and
    each equals `train_tree` on its sample with its seed."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(X) == 0:
        raise DataError("cannot train a forest on an empty dataset")
    n, d = X.shape
    boots = [
        np.random.default_rng(derive_seed(seed, f"boot-{t}")).integers(0, n, size=n) for t in range(FOREST_TREES)
    ]
    rngs = [np.random.default_rng(derive_seed(seed, f"tree-{t}")) for t in range(FOREST_TREES)]
    return Forest(_grow(X, y, n_classes, int(np.ceil(np.sqrt(d))), boots, rngs), n_classes)


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
