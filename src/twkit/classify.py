"""Decision trees, random forests with Gini importance, and the companion
classifiers (softmax regression, one-hidden-layer MLP, linear one-vs-rest SVM).

All models train on the encoded feature matrix (one-hot categorical view plus
scaled numerics) and integer class indices. Categorical splits are one-vs-rest
per code, which in the one-hot view sends the rows at 0 left.

Trees grow in lockstep: one grower serves a single tree and all of a
forest's trees. Each step takes, from every unfinished tree, its next
pre-order nodes up to and including the next one that may be impure (the
children known to be pure before it are leaves), and searches the impure
nodes' splits together, in batches of a bounded number of rows. No step does
Python work per node: every tree's rows live in one permutation, a node is a
segment of it, a split partitions its segment in place (left rows first),
and each tree's stack of segments is a row of one integer array, popped and
pushed for all trees at once. Each node draws its candidate columns from its
own tree's seed in its tree's pre-order, so a tree grown beside others is
the tree grown alone.
The draws of a step's nodes are vectorised across trees, and each node's
candidates equal `np.sort(rng.choice(d, size=s, replace=False))` for
`rng = np.random.default_rng(seed)`: the bounded draws of Floyd's sampling
and of the shuffle that `choice` runs are made by `Generator.integers` on
the tree's PCG64, a block of nodes a call. The split search has two paths,
chosen per column of the training matrix. For the columns that hold only 0 and 1 (every one-hot column), one
weighted bincount over (node, candidate, class) gives each candidate's class
counts at 1; the counts at 0 are the node's counts minus those. Every other
column (the scaled numerics) is sorted within each node and scanned at each
boundary between distinct values. Both paths score splits with the same Gini
expression, so a tree does not depend on which path scored a column. A node
takes its largest decrease, ties broken by (candidate position, threshold). A
scanned split's threshold is taken at its boundary's rank among the column's
boundaries, not at the boundary (the threshold-rank fault, kept so that trees
stay fixed).

Every tree lives in one flat store, a `Forest`: a forest's trees one after
another and the single decision tree as a store of one tree, each tree's
nodes contiguous and in pre-order (a split's left child is the node after
it and its right child is linked). `train_tree` returns a `TreeNode`, a view
of its store's root that reads each field in place. There is one prediction
walk, `Forest.predict_proba`: it moves every (tree, row) pair down one level
per step until it reaches a leaf. A row's probabilities are its leaf's counts
over their sum, and the trees' probabilities are added in tree order.
Importance is one weighted bincount of the splits' decreases.
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
    threshold) for the pairs with rows on both sides."""
    right_counts = at_one[pair]
    right_n = right_counts.sum(axis=1)
    n = counts.sum(axis=1)[pair // s]
    left_n = n - right_n
    valid = np.minimum(left_n, right_n) >= 1
    # rows are selected before dividing, so an empty side is never divided by
    pair, right_counts, left_n, right_n, n = pair[valid], right_counts[valid], left_n[valid], right_n[valid], n[valid]
    node = pair // s
    decrease = _gini_decrease(parent_gini[node], n, counts[node] - right_counts, right_counts, left_n, right_n)
    return pair, decrease, np.where(left_n >= 2, 0.0, 0.5)


def _scan_splits(pair, values, labels, counts, parent_gini, s):
    """The splits of the other (node, candidate) pairs, given as one entry
    per row of the node, each pair's entries in row order: one stable lexsort
    orders each pair's values (equal values keep row order), and a cumulative
    class count gives the rows left of every boundary between distinct
    values. Returns (pair, decrease, threshold) with one element per boundary,
    each pair's boundaries in ascending order. The threshold of a pair's r-th
    boundary is the midpoint of its r-th and (r + 1)-th smallest values, not
    of the values at the boundary (the threshold-rank fault). It still does
    not decrease along a pair's boundaries, so among a pair's tied boundaries
    the (candidate position, threshold) tie-break of `_split_nodes` takes the
    first."""
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
    return pair, decrease, 0.5 * (values[start + rank] + values[start + rank + 1])


def _split_nodes(X, y, binary, rows, node, candidates, counts):
    """Best Gini-decrease split of each node in a batch, and its rows
    partitioned by side.

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
    shrink), with ties broken by (candidate position, threshold): the lowest
    position, then the lowest threshold.

    The stored threshold is the midpoint of the sorted values at positions r
    and r + 1, where r is the best boundary's rank among the column's
    boundaries (the threshold-rank fault). It is the boundary's own midpoint
    only when the values up to it are distinct; for a 0/1 column it is 0.0
    when two or more rows are 0 and 0.5 otherwise.

    Returns (feature, threshold, decrease, order, n_left): feature is -1
    where a node has no split. `order` holds the rows of the split nodes
    ordered by (node, side), left first, each side's rows in the order of
    `rows`, and n_left[i] is how many of node i's rows go left (0 when it has
    no split).
    """
    m, s = candidates.shape
    k = counts.shape[1]
    parent_gini = gini(counts)
    labels = y[rows]
    # (rows, candidate positions), gathered by flat index from the C-contiguous X
    values = X.ravel()[(rows * X.shape[1])[:, None] + candidates[node]]
    key = (node * (s * k) + labels)[:, None] + np.arange(0, s * k, k)  # ((node, position), class)
    at_one = np.bincount(key.ravel(), weights=values.ravel(), minlength=m * s * k).reshape(m * s, k)
    pair_binary = binary[candidates]  # (node, position)
    # the scanned (row, position) entries, row-major, so each pair's rows come in row order
    entry, position = np.divmod(np.flatnonzero(~pair_binary[node]), s)
    options = (
        _count_splits(at_one, pair_binary.ravel().nonzero()[0], counts, parent_gini, s),
        _scan_splits(node[entry] * s + position, values[entry, position], labels[entry], counts, parent_gini, s),
    )
    pair, decrease, threshold = (np.concatenate(o) for o in zip(*options))
    ok = decrease >= 0
    pair, decrease, threshold = pair[ok], decrease[ok], threshold[ok]
    order = np.lexsort((threshold, pair, -decrease, pair // s))
    best = order[_run_starts(pair[order] // s) == np.arange(len(order))]
    split = pair[best] // s
    feature = np.full(m, -1)
    feature[split] = candidates[split, pair[best] % s]
    out_threshold, out_decrease = np.zeros(m), np.zeros(m)
    out_threshold[split], out_decrease[split] = threshold[best], decrease[best]

    keep = (feature >= 0)[node]
    rows, node = rows[keep], node[keep]
    side = 2 * node + ~(X[rows, feature[node]] <= out_threshold[node])  # NaN goes right
    n_left = np.bincount(side, minlength=2 * m)[::2]
    return feature, out_threshold, out_decrease, rows[np.argsort(side, kind="stable")], n_left


# The most rows one batch of the split search holds, which bounds the
# (rows x candidates) arrays it allocates. A step's nodes are cut into batches
# of at most this many rows; a node with more rows goes alone.
GROW_BATCH_ROWS = 8192

# How many entries each tree's stack holds at first; it grows when a push
# needs more.
GROW_STACK_DEPTH = 16


# How many nodes' candidates a tree draws at a time.
DRAW_BLOCK_NODES = 32


class _CandidateDraws:
    """Sorted candidate columns for the nodes of a set of trees, drawn in bulk.

    Row i of `draw(trees)` equals `np.sort(rng.choice(d, size=s, replace=False))`
    for a `Generator` on `bit_generators[trees[i]]`, each tree's nodes taking
    its draws in call order.

    `choice` runs Floyd's algorithm (numpy takes it whenever d <= 10000 or
    s <= d // 50, so for every forest): for j = d - s ... d - 1 it draws a
    value in [0, j], keeping j instead when the value is already drawn. It
    then shuffles the s values, drawing in [0, i] for i = s - 1 ... 1; only
    the draws matter here, as the rows are sorted. `Generator.integers` with
    an array of bounds makes each of those bounded draws in turn on the same
    stream, rejections included, so a tree draws DRAW_BLOCK_NODES nodes in
    one call, and every tree that has run out when `draw` is called applies
    Floyd's rule to its next block in the same array operations."""

    def __init__(self, bit_generators, d: int, s: int):
        if not 0 < s < d:
            raise ValueError(f"cannot draw {s} of {d} columns")
        self.generators, self.d, self.s = [np.random.Generator(bg) for bg in bit_generators], d, s
        self.bounds = np.tile(np.r_[np.arange(d - s + 1, d + 1), np.arange(s, 1, -1)], DRAW_BLOCK_NODES)
        # the smallest integer type that holds a column index keeps the blocks small
        self.blocks = np.empty((len(bit_generators), DRAW_BLOCK_NODES, s), dtype=np.min_scalar_type(d))
        self.next = np.full(len(bit_generators), DRAW_BLOCK_NODES)  # each tree's next node in its block

    def _refill(self, trees) -> None:
        """Draw the next block of each of `trees`."""
        d, s = self.d, self.s
        drawn = np.array([self.generators[t].integers(0, self.bounds) for t in trees.tolist()])
        values = drawn.reshape(len(trees), DRAW_BLOCK_NODES, -1)[:, :, :s]
        columns = [values[:, :, k] for k in range(s)]
        for k in range(1, s):  # Floyd: a value already drawn becomes j
            seen = columns[0] == columns[k]
            for i in range(1, k):
                seen |= columns[i] == columns[k]
            columns[k][seen] = d - s + k
        values.sort(axis=2)
        self.blocks[trees], self.next[trees] = values, 0

    def draw(self, trees) -> np.ndarray:
        """The next node's sorted candidates of each of `trees` (distinct
        tree indices), one row per tree."""
        spent = trees[self.next[trees] == DRAW_BLOCK_NODES]
        if len(spent):
            self._refill(spent)
        out = self.blocks[trees, self.next[trees]]
        self.next[trees] += 1
        return out


@dataclass
class Forest:
    """Every node of a forest's trees in one store, tree after tree, each
    tree's nodes in pre-order; `trees[t]` is the index of tree t's root.

    Node i is a leaf when feature[i] is -1. Otherwise it sends the rows at or
    below threshold[i] to its left child, node i + 1, and the others (NaN
    too) to its right child, right[i]."""

    trees: np.ndarray
    n_samples: np.ndarray
    counts: np.ndarray  # (nodes, classes)
    feature: np.ndarray
    threshold: np.ndarray
    decrease: np.ndarray
    right: np.ndarray  # -1 at a leaf

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        n_trees, n_rows = len(self.trees), len(X)
        # (tree, row) pairs, tree-major; each step moves the pairs still at a
        # split one level down and retires those at a leaf
        node = np.repeat(self.trees, n_rows)
        row = np.tile(np.arange(n_rows), n_trees)
        pair = np.arange(len(node))
        leaf = np.empty_like(node)
        while len(pair):
            feature = self.feature[node]
            split = feature >= 0
            leaf[pair[~split]] = node[~split]
            pair, node, row, feature = pair[split], node[split], row[split], feature[split]
            node = np.where(X[row, feature] <= self.threshold[node], node + 1, self.right[node])
        counts = self.counts[leaf].astype(np.float64)
        proba = (counts / counts.sum(axis=1, keepdims=True)).reshape(n_trees, n_rows, self.counts.shape[1])
        # the builtin sum adds in tree order; ndarray.sum(axis=0) may add pairwise
        return sum(proba) / n_trees


def _view_field(name: str, cast) -> property:
    """A `TreeNode` property that reads its node's entry of store field `name`."""
    return property(lambda node: cast(getattr(node.store, name)[node.index]))


@dataclass(frozen=True, eq=False)
class TreeNode:
    """Node `index` of a `Forest` store, read in place: a split, whose
    children are views too, or a leaf, whose `left` and `right` are None."""

    store: Forest
    index: int
    n_samples = _view_field("n_samples", int)
    counts = _view_field("counts", lambda row: tuple(row.tolist()))
    feature = _view_field("feature", int)
    threshold = _view_field("threshold", float)
    decrease = _view_field("decrease", float)

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0

    @property
    def left(self) -> "TreeNode | None":
        return None if self.is_leaf else TreeNode(self.store, self.index + 1)

    @property
    def right(self) -> "TreeNode | None":
        return None if self.is_leaf else TreeNode(self.store, int(self.store.right[self.index]))


def _grow(X, y, n_classes, subset, seeds, boot_seeds=None) -> Forest:
    """Grow one tree per seed, all in lockstep, into one `Forest` store.

    Tree t takes every row of X in order or, when `boot_seeds` is given,
    the bootstrap sample of len(X) rows drawn from `boot_seeds[t]`;
    `seeds[t]` seeds its candidate draws. Each step pops the next pre-order
    nodes of every unfinished tree, down to its first one that may be
    impure: a pushed child is marked pure when its labels agree, and such a
    node is a leaf that needs no draw, so it need not wait a step of its
    own. The nodes' class counts come from one bincount over (node, class); a
    pure node is a leaf, and an impure one is split by `_split_nodes`, or is
    a leaf when no split exists. When `subset` < d the impure nodes draw
    their candidates together (`_CandidateDraws`), each from a fresh PCG64
    on its tree's seed: the k-th node of a tree to draw gets the k-th
    `np.sort(rng.choice(d, size=subset, replace=False))` of
    `rng = np.random.default_rng(seed)`. A split pushes its right child,
    then its left, so each tree draws in its own pre-order and grows exactly
    as it would alone.

    One permutation, `perm`, holds every tree's rows, tree t's sample in its
    own span, and a node is a segment [start, stop) of it. A split writes
    its rows back into its segment, left rows first, so its children are the
    two parts. Each tree's stack is a row of one (start, stop, parent, may be
    impure) array with a depth per tree, grown when a push needs more room:
    every step pops the top entries of each unfinished tree at once, cuts the
    popped nodes into batches from their sizes, and pushes every split node's
    children in one assignment.

    Each batch's node fields and trees are written by slice to the end of a
    growable store, so every tree's nodes are stored in its pre-order. A
    left child is its tree's next node. A right child carries its parent's
    store index on the stack and links itself as the parent's right child.
    At the end one stable sort by tree makes each tree's nodes contiguous,
    and the links are remapped."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape
    if n == 0:
        raise DataError("cannot train trees on an empty dataset")
    if y.min(initial=0) < 0 or y.max(initial=0) >= n_classes:
        raise DataError(f"class indices must lie in [0, {n_classes})")
    if boot_seeds is None:
        perm = np.arange(n)
    else:
        perm = np.concatenate([np.random.default_rng(boot).integers(0, n, size=n) for boot in boot_seeds])
    n_trees = len(perm) // n
    binary = ((X == 0) | (X == 1)).all(axis=0)
    store = {
        "n_samples": np.empty(0, dtype=np.int64), "counts": np.empty((0, n_classes), dtype=np.int64),
        "feature": np.empty(0, dtype=np.intp), "threshold": np.empty(0), "decrease": np.empty(0),
        "right": np.empty(0, dtype=np.intp), "tree": np.empty(0, dtype=np.intp),
    }
    draws = _CandidateDraws([np.random.PCG64(seed) for seed in seeds], d, subset) if subset < d else None
    size = 0  # nodes stored
    # stack[:, t, i] is entry i of tree t's stack: (start, stop, parent's
    # store index if a right child else -1, 0 if the node is known pure else 1)
    stack = np.zeros((4, n_trees, GROW_STACK_DEPTH), dtype=np.intp)
    stack[:, :, 0] = np.arange(n_trees) * n, np.arange(1, n_trees + 1) * n, np.full(n_trees, -1), np.ones(n_trees)
    depth = np.ones(n_trees, dtype=np.intp)
    active = np.arange(n_trees)
    while len(active):
        # each tree pops its entries from the top down to its topmost one that
        # may be impure (or to the bottom): its next nodes in pre-order, all
        # but the last known to be leaves
        top = depth[active]
        maybe_impure = np.where(stack[3, active], np.arange(stack.shape[2]), 0)
        depth[active] = np.maximum.accumulate(maybe_impure, axis=1)[np.arange(len(active)), top - 1]
        popped = top - depth[active]
        owners = np.repeat(active, popped)
        entry = np.repeat(top - 1 + popped.cumsum() - popped, popped) - np.arange(len(owners))
        starts, stops, parents = stack[:3, owners, entry]
        ends = (stops - starts).cumsum()
        first = 0
        while first < len(owners):
            base = ends[first - 1] if first else 0
            last = max(int(np.searchsorted(ends, base + GROW_BATCH_ROWS, side="right")), first + 1)
            batch = slice(first, last)
            first, m = last, last - first
            trees, start, stop, parent = owners[batch], starts[batch], stops[batch], parents[batch]
            sizes = stop - start
            node = np.repeat(np.arange(m), sizes)
            at_row = np.arange(len(node)) + np.repeat(start - (sizes.cumsum() - sizes), sizes)  # into perm
            rows = perm[at_row]
            counts = np.bincount(node * n_classes + y[rows], minlength=m * n_classes).reshape(m, n_classes)
            if size + m > len(store["tree"]):
                capacity = max(2 * len(store["tree"]), size + m)
                store = {name: np.resize(a, (capacity,) + a.shape[1:]) for name, a in store.items()}
            new = slice(size, size + m)
            store["n_samples"][new], store["counts"][new], store["tree"][new] = sizes, counts, trees
            store["feature"][new], store["threshold"][new], store["decrease"][new], store["right"][new] = -1, 0, 0, -1
            is_right = parent >= 0
            store["right"][parent[is_right]] = size + is_right.nonzero()[0]
            impure = np.count_nonzero(counts, axis=1) > 1
            if impure.any():
                if draws is not None:
                    candidates = draws.draw(trees[impure])
                else:
                    candidates = np.broadcast_to(np.arange(d), (np.count_nonzero(impure), d))
                keep = impure[node]
                at = size + impure.nonzero()[0]
                f, thr, dec, order, n_left = _split_nodes(
                    X, y, binary, rows[keep], (impure.cumsum() - 1)[node[keep]], candidates, counts[impure]
                )
                store["feature"][at], store["threshold"][at], store["decrease"][at] = f, thr, dec
                has_split = f >= 0
                split = impure.copy()
                split[impure] = has_split
                perm[at_row[split[node]]] = order
                t, free = trees[split], depth[trees[split]]
                if len(t) and free.max() + 2 > stack.shape[2]:
                    stack = np.pad(stack, ((0, 0), (0, 0), (0, max(stack.shape[2], free.max() + 2 - stack.shape[2]))))
                n_left = n_left[has_split]
                middle = start[split] + n_left
                # each child's rows in `order`, left then right, none empty
                halves = np.column_stack([n_left, stop[split] - middle]).ravel()
                edges, labels = halves.cumsum() - halves, y[order]
                mixed = np.minimum.reduceat(labels, edges) != np.maximum.reduceat(labels, edges)
                stack[:, t, free] = middle, stop[split], at[has_split], mixed[1::2]
                stack[:, t, free + 1] = start[split], middle, np.full(len(t), -1), mixed[::2]
                depth[t] += 2
            size += m
        active = np.flatnonzero(depth)
    tree = store.pop("tree")[:size]
    order = np.argsort(tree, kind="stable")
    position = np.empty(size, dtype=np.intp)
    position[order] = np.arange(size)
    nodes = {name: a[:size][order] for name, a in store.items()}
    right = nodes["right"]
    right[right >= 0] = position[right[right >= 0]]
    tree_sizes = np.bincount(tree, minlength=n_trees)
    return Forest(trees=tree_sizes.cumsum() - tree_sizes, **nodes)


def train_tree(X, y, n_classes: int, subset: int, seed: int) -> TreeNode:
    """Greedy CART-style tree maximizing Gini-impurity decrease, grown until
    every leaf is pure or has no split. Each split node scores `subset`
    columns drawn without replacement, or every column when `subset` >= d.
    Returns the root of its one-tree store."""
    return TreeNode(_grow(X, y, n_classes, subset, [seed]), 0)


FOREST_TREES = 100


def train_forest(X, y, n_classes: int, seed: int) -> Forest:
    """FOREST_TREES fully grown trees, each on a bootstrap sample and scoring
    ceil(sqrt(d)) columns per split (Breiman 2001). Tree t draws its sample
    from the boot-{t} seed and its candidates from the tree-{t} seed, both
    derived from the master seed. The trees grow in lockstep (`_grow`), and
    each equals `train_tree` on its sample with its seed."""
    seeds = [derive_seed(seed, f"tree-{t}") for t in range(FOREST_TREES)]
    boot_seeds = [derive_seed(seed, f"boot-{t}") for t in range(FOREST_TREES)]
    return _grow(X, y, n_classes, int(np.ceil(np.sqrt(np.shape(X)[1]))), seeds, boot_seeds)


def column_importance(forest: Forest, n_columns: int) -> np.ndarray:
    """Mean over trees of sample-weighted impurity decrease per encoded column.

    One weighted bincount over (tree, column) adds each tree's splits in
    pre-order, and the builtin sum adds the trees' sums in tree order."""
    n_trees = len(forest.trees)
    tree = np.repeat(np.arange(n_trees), np.diff(forest.trees, append=len(forest.feature)))
    split = forest.feature >= 0
    weight = forest.n_samples / forest.n_samples[forest.trees][tree] * forest.decrease
    per_tree = np.bincount(
        tree[split] * n_columns + forest.feature[split], weights=weight[split], minlength=n_trees * n_columns
    ).reshape(n_trees, n_columns)
    return sum(per_tree) / n_trees


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


def _two_class_data(X, y, model: str):
    """X as float64 and y as int64 class indices, which must hold two classes
    or more."""
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.int64)
    if len(np.unique(y)) < 2:
        raise DataError(f"{model} needs >=2 classes in training data")
    return X, y


@dataclass
class LogisticModel:
    W: np.ndarray  # (d, k)
    b: np.ndarray  # (k,)

    def predict_proba(self, X) -> np.ndarray:
        return _softmax(np.asarray(X) @ self.W + self.b)


def train_logreg(X, y, n_classes: int, seed: int = 0) -> LogisticModel:
    """Multinomial softmax regression by full-batch gradient descent (zero init)."""
    X, y = _two_class_data(X, y, "logistic regression")
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
    X, y = _two_class_data(X, y, "MLP classifier")
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
    X, y = _two_class_data(X, y, "SVM")
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
        return self.tree.store.predict_proba(X)


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
