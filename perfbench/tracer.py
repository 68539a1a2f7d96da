"""Spans and counters recorded around twkit's public functions, from outside.

`Tracer.install` replaces each instrumented function in every twkit module
namespace that refers to it (and in the classifier registry), so calls made
from anywhere inside the package go through a recording wrapper.
`Tracer.uninstall` puts the original objects back. Nothing under `src/` is
edited; with the tracer uninstalled the program runs exactly as shipped.

A span is `[name, parent, start, end, child_seconds, work]`. Spans nest on one
stack because the benchmark drives twkit from a single thread. A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from collections import defaultdict

NAME, PARENT, START, END, CHILD_S, WORK = range(6)

def _nn_flop_per_row(mlp) -> int:
    sizes = mlp.layer_sizes
    return sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))


def _forward_work(args, kwargs, result):
    mlp, batch = args[0], args[1]
    return {"flop": 2 * batch.shape[0] * _nn_flop_per_row(mlp)}


def _backward_work(args, kwargs, result):
    # one matmul for the weight gradient and one for the input gradient per layer
    mlp, grad = args[0], args[2]
    return {"flop": 4 * grad.shape[0] * _nn_flop_per_row(mlp)}


def _rows_out(args, kwargs, result):
    return {"rows": len(result)}


def _rows_in(args, kwargs, result):
    return {"rows": len(args[0])}


def _encode_work(args, kwargs, result):
    return {"rows": result.values.shape[0], "bytes_out": result.values.nbytes}


def _load_work(args, kwargs, result):
    return {"rows": len(result[0]), "bytes_in": os.path.getsize(args[0])}


def _save_work(args, kwargs, result):
    return {"rows": len(args[0]), "bytes_out": os.path.getsize(args[1])}


def _render_work(args, kwargs, result):
    return {"bytes_out": len(result.encode("utf-8"))}


def _gain_work(args, kwargs, result):
    return {"rows": args[0].values.shape[0]}


# What each work function records, for listing the metrics before any call.
WORK_KEYS = {
    None: (),
    _rows_in: ("rows",),
    _rows_out: ("rows",),
    _encode_work: ("rows", "bytes_out"),
    _load_work: ("rows", "bytes_in"),
    _save_work: ("rows", "bytes_out"),
    _render_work: ("bytes_out",),
    _gain_work: ("rows",),
}

# (module, function, span name, work) for every instrumented module-level
# function. Each is patched wherever a twkit namespace refers to it.
FUNCTIONS = (
    ("synth", "synthesize_corpus", "synth.synthesize_corpus", _rows_out),
    ("table", "load_augmented_csv", "table.load_augmented_csv", _load_work),
    ("table", "save_csv", "table.save_csv", _save_work),
    ("table", "split_stratified", "table.split_stratified", None),
    ("table", "kfold_stratified", "table.kfold_stratified", None),
    ("table", "inject_missing", "table.inject_missing", None),
    ("table", "class_histogram", "table.class_histogram", None),
    ("encoding", "build_codec", "encoding.build_codec", _rows_in),
    ("encoding", "encode", "encoding.encode", _encode_work),
    ("encoding", "decode", "encoding.decode", _rows_out),
    ("encoding", "decode_cells", "encoding.decode_cells", _rows_out),
    ("encoding", "expand_mask", "encoding.expand_mask", _rows_out),
    ("encoding", "label_indices", "encoding.label_indices", _rows_out),
    ("impute", "impute_sta", "impute.impute_sta", _rows_out),
    ("impute", "impute_mice", "impute.impute_mice", _rows_out),
    ("impute", "train_gain", "impute.train_gain", _gain_work),
    ("impute", "evaluate_imputation", "impute.evaluate_imputation", _rows_in),
    ("augment", "two_stage_augment", "augment.two_stage_augment", _rows_in),
    ("augment", "smotenc_generate", "augment.smotenc_generate", _rows_out),
    ("augment", "sample_table_cgan", "augment.sample_table_cgan", _rows_out),
    ("classify", "train_forest", "classify.train_forest", _rows_in),
    ("classify", "feature_importance", "classify.feature_importance", None),
    ("classify", "train_logreg", "classify.train_logreg", _rows_in),
    ("classify", "train_mlp_classifier", "classify.train_mlp_classifier", _rows_in),
    ("classify", "train_linear_svm", "classify.train_linear_svm", _rows_in),
    ("metrics", "compute_metrics", "metrics.compute_metrics", _rows_in),
    ("metrics", "auc_rank", "metrics.auc_rank", None),
    ("analyze", "correlation_matrix", "analyze.correlation_matrix", None),
    ("analyze", "contingency", "analyze.contingency", None),
    ("analyze", "cramers_v", "analyze.cramers_v", None),
    ("analyze", "chi_square", "analyze.chi_square", None),
    ("analyze", "group_by_class", "analyze.group_by_class", None),
    ("analyze", "box_stats", "analyze.box_stats", _rows_in),
    ("analyze", "kde", "analyze.kde", _rows_in),
    ("render", "render_importance_bar", "render.render_importance_bar", _render_work),
    ("render", "render_box_grid", "render.render_box_grid", _render_work),
    ("render", "render_violin_grid", "render.render_violin_grid", _render_work),
    ("render", "render_heatmap", "render.render_heatmap", _render_work),
)

# every model class's predict_proba records under one span name
PREDICTORS = ("Forest", "_TreeModel", "LogisticModel", "MlpClassifier", "LinearSvm")


class Tracer:
    """In-memory spans, counters and captured results for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.models: list = []  # CGAN models, for the class-agreement diagnostic
        self.trees: list = []  # every tree built, for node and depth counts
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- spans ------------------------------------------------------------------

    def wrap(self, fn, name, work=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, parent, 0.0, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD_S] += record[END] - record[START]
            if work is not None:
                record[WORK] = work(args, kwargs, result)
            return result

        return traced

    def call(self, name, fn, *args):
        """Run `fn(*args)` as a span of its own (used for top-level commands)."""
        return self.wrap(fn, name)(*args)

    # -- patching ---------------------------------------------------------------

    def _set(self, owner, attr, value):
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def _patch_everywhere(self, original, attr, make):
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("twkit.")]
        for module in modules:
            if module.__dict__.get(attr) is original:
                self._set(module, attr, make(module.__name__.split(".")[-1]))
        registry = sys.modules["twkit.classify"].CLASSIFIERS
        for key, fn in list(registry.items()):
            if fn is original:
                self._set(registry, key, make("classify"))

    def _cgan_work(self, args, kwargs, result):
        encoded, config = args[0], args[2]
        self.models.append(result)
        return {"steps": config.epochs * math.ceil(encoded.values.shape[0] / config.batch_size)}

    def _tree_work(self, args, kwargs, result):
        self.trees.append(result)
        return None

    def install(self):
        mods = {n.split(".")[-1]: m for n, m in sys.modules.items() if n.startswith("twkit.")}
        functions = FUNCTIONS + (
            ("augment", "train_table_cgan", "augment.train_table_cgan", self._cgan_work),
            ("classify", "train_tree", "classify.train_tree", self._tree_work),
        )
        for module, attr, name, work in functions:
            original = getattr(mods[module], attr)
            wrapped = self.wrap(original, name, work)
            self._patch_everywhere(original, attr, lambda _caller, w=wrapped: w)

        nn = mods["nn"]
        for attr, work in (("forward", _forward_work), ("backward", _backward_work), ("adam_step", None)):
            original = getattr(nn, attr)
            self._patch_everywhere(
                original, attr,
                lambda caller, o=original, a=attr, w=work: self.wrap(o, f"nn.{a}@{caller}", w),
            )

        classify = mods["classify"]
        for cls_name in PREDICTORS:
            cls = getattr(classify, cls_name)
            self._set(cls, "predict_proba",
                      self.wrap(cls.__dict__["predict_proba"], "classify.predict_proba", _rows_out))

        spec = mods["schema"].AttributeSpec
        counts = self.counts
        codes = spec.__dict__["codes"].fget
        code_index = spec.__dict__["code_index"]

        def counted_codes(attr_spec):
            counts["schema.codes"] += 1
            return codes(attr_spec)

        def counted_code_index(attr_spec, code):
            counts["schema.code_index"] += 1
            return code_index(attr_spec, code)

        self._set(spec, "codes", property(counted_codes))
        self._set(spec, "code_index", counted_code_index)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- summaries --------------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds and work sums."""
        out: dict[str, dict[str, float]] = {}
        for name, _parent, start, end, child_s, work in self.spans:
            entry = out.setdefault(name, defaultdict(float))
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_s
            for key, value in (work or {}).items():
                entry[key] += value
        return {name: dict(entry) for name, entry in out.items()}

    def top_level(self) -> list[list]:
        return [s for s in self.spans if s[PARENT] < 0]

    def children(self, index: int) -> list[list]:
        return [s for s in self.spans if s[PARENT] == index]


def tree_shape(trees) -> tuple[int, int]:
    """Total node count and maximum depth over a list of root `TreeNode`s."""
    nodes = 0
    depth = 0
    for root in trees:
        stack = [(root, 0)]
        while stack:
            node, d = stack.pop()
            nodes += 1
            depth = max(depth, d)
            if node.left is not None:
                stack.append((node.left, d + 1))
                stack.append((node.right, d + 1))
    return nodes, depth
