"""Missing-data repair and the imputation benchmark harness.

Three built-in imputers:

- STA: column mode (categorical, ties to the earliest declared code) or
  column mean (numeric).
- MICE: STA initialization, then chained sweeps regressing each incomplete
  column on all the others (one-vs-rest logistic for categoricals,
  least squares for numerics), re-predicting only the originally-missing cells.
  Each categorical column is one multi-class fit: the one-vs-rest problems of
  all its observed codes share one design and step together as the columns of
  one weight matrix.
  Each attribute's design block (one-hot codes, or min-max scaled numbers) is
  encoded once and rebuilt only after an imputation changes its column; the
  design for a column is the intercept plus every other non-constant block in
  attribute order.
  A column is fitted only while stale: before its first fit, and after a fit
  of another column changed any bit of its filled cells. The chain is
  deterministic, so the sweeps end once none is stale (the fixed point) with
  the result of `rounds` full sweeps.
- GAIN: a generator predicts every cell from the noised row plus its mask; a
  discriminator, shown a hint vector that reveals a random subset of the true
  mask, learns to tell observed from imputed entries; the generator is trained
  to fool it on missing entries while reconstructing observed ones. Its mask
  is the table's None cells spread over their encoded columns
  (`encoding.expand_mask`).

Each imputer takes the missing cells from `Table.missing_rows` and writes its
values with `Table.fill`, so only those cells change.

The benchmark scores each method in `METHODS` by how far classifier metrics
move when models are retrained on imputed instead of pristine data. Accuracy
and F1 deltas are reported in percentage points, AUC deltas in raw units. F1
is the support-weighted mean over classes: with several near-empty classes in
a 520-row benchmark, the unweighted mean is dominated by single-row flips and
would drown the signal the benchmark is after.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .classify import CLASSIFIERS, fit_and_score
from .encoding import Codec, EncodedMatrix, build_codec, decode_block, encode, expand_mask, require_cover
from .errors import DataError, TrainingDiverged
from .metrics import AbsentClassWarning
from .nn import (
    MLP,
    AdamState,
    adam_step,
    backward,
    binary_cross_entropy,
    forward,
    init_mlp,
    iter_batches,
    mse,
    one_hot,
)
from .schema import CATEGORICAL
from .seeds import derive_seed
from .table import Table, class_histogram, inject_missing, split_stratified


def _require_observed(table: Table) -> dict[int, list[int]]:
    """The table's `missing_rows()`; a DataError naming the first attribute
    whose every cell is missing: no imputer can learn a fill for it."""
    missing = table.missing_rows()
    for j, rows in missing.items():
        if len(rows) == len(table):
            raise DataError(f"attribute {table.schema.attributes[j].name!r} is entirely missing")
    return missing


def impute_sta(table: Table) -> Table:
    """Mode/mean imputation; observed cells pass through untouched."""
    fills = {}
    for j, rows in _require_observed(table).items():
        attr = table.schema.attributes[j]
        observed = [row[j] for row in table.rows if row[j] is not None]
        if attr.kind == CATEGORICAL:
            k = attr.code_indices(observed)
            # argmax takes the first maximum: ties go to the earliest declared code
            fill = attr.codes[int(np.bincount(k, minlength=len(attr.codes)).argmax())]
        else:
            fill = float(np.mean(observed))
        fills[j] = [fill] * len(rows)
    return table.fill(fills)


def _design_block(attr, col: np.ndarray) -> np.ndarray | None:
    """One attribute's design columns: the one-hot of `col`'s code indices
    (categorical) or `col` min-max scaled (numeric); None when `col` is constant."""
    lo, hi = col.min(), col.max()
    if lo == hi:
        return None
    if attr.kind == CATEGORICAL:
        return one_hot(col, len(attr.codes))
    return ((col - lo) / (hi - lo)).reshape(-1, 1)


# MICE's one-vs-rest logistic fits: full-batch gradient descent from zero
OVR_ITERS = 200
OVR_LEARNING_RATE = 0.3
OVR_L2 = 1e-3


def _logistic_ovr_predict(X_obs, y, X_mis, classes):
    """One-vs-rest logistic scores; returns the position in `classes` of the
    argmax per missing row (ties to the earliest). Every class must occur in
    `y`. Column k of the (d x K) weights is the fit for classes[k]."""
    targets = (y[:, None] == classes).astype(np.float64)
    weights = np.zeros((X_obs.shape[1], len(classes)))
    for _ in range(OVR_ITERS):
        p = 1.0 / (1.0 + np.exp(-(X_obs @ weights)))
        weights -= OVR_LEARNING_RATE * (X_obs.T @ (p - targets) / len(y) + OVR_L2 * weights)
    return (X_mis @ weights).argmax(axis=1)


def impute_mice(table: Table, rounds: int = 10) -> Table:
    """Chained-equation imputation (single chain, point predictions): at most
    `rounds` sweeps, each fitting only the columns whose inputs changed since
    their last fit, with the result of `rounds` full sweeps."""
    if rounds < 1:
        raise DataError(f"rounds must be >= 1, got {rounds}")
    attrs = table.schema.attributes
    missing = table.missing_rows()
    if not missing:
        return table
    working = impute_sta(table)
    # every column as an array (code indices for categoricals) and its design
    # block, rebuilt only when an imputation changes its column
    values = [
        attr.code_indices(col) if attr.kind == CATEGORICAL else np.array(col, dtype=np.float64)
        for attr, col in zip(attrs, map(working.column, table.schema.names))
    ]
    blocks = [_design_block(attr, col) for attr, col in zip(attrs, values)]
    intercept = np.ones((len(table), 1))
    constant = {}  # names in first-seen order
    stale = set(missing)
    for _ in range(rounds):
        if not stale:
            break
        for j in missing:
            if j not in stale:
                continue
            stale.discard(j)
            attr = attrs[j]
            parts = [intercept]
            for k, block in enumerate(blocks):
                if k == j:
                    continue
                if block is None:
                    constant[attrs[k].name] = None
                else:
                    parts.append(block)
            design = np.hstack(parts)
            mis = missing[j]
            obs = np.delete(np.arange(len(table)), mis)
            X_obs, X_mis = design[obs], design[mis]
            y = values[j][obs]
            before = values[j][mis].tobytes()
            if attr.kind == CATEGORICAL:
                seen = np.flatnonzero(np.bincount(y, minlength=len(attr.codes)))
                values[j][mis] = seen[_logistic_ovr_predict(X_obs, y, X_mis, seen)]
            else:
                beta, *_ = np.linalg.lstsq(X_obs, y, rcond=None)
                values[j][mis] = np.clip(X_mis @ beta, y.min(), y.max())
            if values[j][mis].tobytes() != before:
                # every other column's design holds this column's block
                stale = set(missing) - {j}
                blocks[j] = _design_block(attr, values[j])
    if constant:
        names = ", ".join(repr(name) for name in constant)
        warnings.warn(f"constant predictors dropped from regression: {names}")
    fills = {}
    for j, rows in missing.items():
        filled = values[j][rows].tolist()
        fills[j] = [attrs[j].codes[k] for k in filled] if attrs[j].kind == CATEGORICAL else filled
    return table.fill(fills)


# -- GAIN ----------------------------------------------------------------------


HINT_RATE = 0.9


@dataclass(frozen=True)
class GainConfig:
    epochs: int = 400
    batch_size: int = 128
    alpha: float = 10.0
    hidden: tuple[int, ...] | None = None  # None -> (d, d)

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise DataError(f"GAIN epochs and batch_size must be >= 1, got {self.epochs} and {self.batch_size}")
        if self.alpha < 0:
            raise DataError(f"GAIN alpha must be >= 0, got {self.alpha}")


@dataclass
class GainModel:
    generator: MLP
    codec: Codec
    noise_seed: int


def _gain_nets(d: int, spans, hidden, seed: int):
    layers = (2 * d,) + (hidden or (d, d)) + (d,)
    gen = init_mlp(
        layers,
        seed=derive_seed(seed, "generator"),
        hidden_activation="relu",
        output_activation="softmax_blocks",
        output_blocks=tuple(spans),
    )
    disc = init_mlp(
        layers,
        seed=derive_seed(seed, "discriminator"),
        hidden_activation="relu",
        output_activation="sigmoid",
    )
    return gen, disc


def train_gain(encoded: EncodedMatrix, m: np.ndarray, config: GainConfig, seed: int) -> GainModel:
    """Adversarial imputation training on `encoded` with its observed matrix
    `m` (`expand_mask`: 1 where a cell is observed, 0 where missing).

    Per batch: noise unobserved inputs with z ~ U(0, 0.01); the generator maps
    (noised row, mask) to a full reconstruction; the discriminator sees the
    imputed row plus a hint vector b*m + 0.5*(1-b) with b ~ Bernoulli(HINT_RATE)
    per entry, and its cross-entropy counts only concealed (b=0) entries. The
    generator minimizes adversarial loss on missing entries plus
    alpha * masked MSE on observed ones.
    """
    x = encoded.values
    if x.min() < 0 or x.max() > 1:
        raise DataError("encoded values must lie in [0, 1]")
    if m.shape != x.shape:
        raise DataError(f"mask shape {m.shape} does not match encoded shape {x.shape}")
    d = x.shape[1]
    gen, disc = _gain_nets(d, encoded.codec.categorical_spans(), config.hidden, seed)
    g_state = AdamState.for_mlp(gen)
    d_state = AdamState.for_mlp(disc)
    rng = np.random.default_rng(derive_seed(seed, "gain-batches"))
    n = x.shape[0]
    for epoch in range(config.epochs):
        for b_i, batch in enumerate(iter_batches(n, config.batch_size, rng)):
            xb, mb = x[batch], m[batch]
            z = rng.uniform(0.0, 0.01, size=xb.shape)
            x_tilde = mb * xb + (1.0 - mb) * z
            gen_in = np.hstack([x_tilde, mb])
            b_hint = (rng.random(size=xb.shape) < HINT_RATE).astype(np.float64)
            hint = b_hint * mb + 0.5 * (1.0 - b_hint)

            # G is not updated until the end of the step, so one forward
            # serves both the discriminator and the generator update
            g_out, g_cache = forward(gen, gen_in)
            x_hat = mb * xb + (1.0 - mb) * g_out
            d_in = np.hstack([x_hat, hint])

            # discriminator update (generator output treated as constant)
            d_out, d_cache = forward(disc, d_in)
            d_loss, d_grad = binary_cross_entropy(d_out, mb, mask=1.0 - b_hint)
            d_grads, _ = backward(disc, d_cache, d_grad, inputs=False)
            adam_step(disc, d_grads, d_state)

            # generator update: fool D on missing entries + reconstruct observed
            d_out, d_cache = forward(disc, d_in)
            adv_loss, adv_grad = binary_cross_entropy(
                d_out, np.ones_like(d_out), mask=1.0 - mb
            )
            _, d_input_grad = backward(disc, d_cache, adv_grad, params=False)
            rec_loss, rec_grad = mse(g_out, xb, mask=mb)
            g_out_grad = d_input_grad[:, :d] * (1.0 - mb) + config.alpha * rec_grad
            g_grads, _ = backward(gen, g_cache, g_out_grad, inputs=False)
            adam_step(gen, g_grads, g_state)

            if not (np.isfinite(d_loss) and np.isfinite(adv_loss) and np.isfinite(rec_loss)):
                raise TrainingDiverged("non-finite GAIN loss", epoch=epoch, batch=b_i)
    return GainModel(generator=gen, codec=encoded.codec, noise_seed=derive_seed(seed, "gain-noise"))


def _fit_gain(table: Table, config: GainConfig, seed: int) -> GainModel:
    """Train GAIN on the table's observed cells, under a codec built from it."""
    _require_observed(table)
    encoded = encode(table)
    return train_gain(encoded, expand_mask(table, encoded.codec), config, seed)


def impute_gain(model: GainModel, table: Table) -> Table:
    """Fill the table's missing cells from the generator's output G(x_tilde, m),
    with x the table encoded under the model's codec (a CodecError when the
    table's schema declares other codes or has attributes the codec lacks),
    m its `expand_mask` and x_tilde its missing entries noised. Only the
    missing cells are decoded, block by block (`decode_block`): the block
    argmax for categoricals, clamped and un-scaled numerics. Observed cells
    pass through untouched, including a number outside the codec's range
    (which encoding clamps)."""
    x = encode(table, codec_source=model.codec).values
    m = expand_mask(table, model.codec)
    rng = np.random.default_rng(model.noise_seed)
    z = rng.uniform(0.0, 0.01, size=x.shape)
    x_tilde = m * x + (1.0 - m) * z
    g_out, _ = forward(model.generator, np.hstack([x_tilde, m]))
    require_cover(model.codec, table.schema)
    blocks = {block.attribute: block for block in model.codec.blocks}
    fills = {}
    for j, rows in table.missing_rows().items():
        block = blocks[table.schema.attributes[j].name]
        fills[j] = decode_block(block, g_out[rows, block.start : block.stop])
    return table.fill(fills)


def gain_impute_table(
    table: Table, config: GainConfig | None = None, seed: int = 0
) -> Table:
    """Train GAIN on the table's own observed cells and fill its gaps."""
    return impute_gain(_fit_gain(table, config or GainConfig(), seed), table)


# -- evaluation harness ---------------------------------------------------------


METHODS = ("sta", "mice", "gain", "oracle")


def _impute_split(
    name: str, train_missing: Table, test_missing: Table, pristine: tuple[Table, Table],
    seed: int, gain_config: GainConfig,
) -> tuple[Table, Table]:
    """Method `name`'s imputed (train, test) pair. GAIN is fitted on the train
    side only; `oracle` returns the `pristine` pair."""
    if name == "sta":
        return impute_sta(train_missing), impute_sta(test_missing)
    if name == "mice":
        return impute_mice(train_missing, rounds=10), impute_mice(test_missing, rounds=10)
    if name == "gain":
        model = _fit_gain(train_missing, gain_config, derive_seed(seed, "gain"))
        return impute_gain(model, train_missing), impute_gain(model, test_missing)
    return pristine


@dataclass(frozen=True)
class MethodScores:
    per_classifier: dict[str, dict[str, float]]
    avg_accuracy_diff: float
    avg_f1_diff: float
    avg_auc_diff: float


@dataclass(frozen=True)
class DiffReport:
    """Classifier-metric movement per imputation method.

    Accuracy and macro-F1 differences are absolute values in percentage
    points; AUC differences are absolute values in raw AUC units.
    """

    # the field order, here and in MethodScores, is the key order of imputation.json
    features: tuple[str, ...]
    rate: float
    seed: int
    pristine: dict[str, dict[str, float]]
    methods: dict[str, MethodScores]

    def to_dict(self) -> dict:
        return asdict(self)

    def format_text(self) -> str:
        lines = [f"{'Method':<10} {'Avg Accuracy':>14} {'Avg F1-score':>14} {'Avg AUC':>10}"]
        for name, s in self.methods.items():
            lines.append(
                f"{name:<10} {s.avg_accuracy_diff:>14.3f} {s.avg_f1_diff:>14.3f} {s.avg_auc_diff:>10.3f}"
            )
        return "\n".join(lines)


def _classifier_metrics(train: Table, test: Table, codec, classifiers, seed) -> dict[str, dict[str, float]]:
    """Each classifier's accuracy, weighted F1 and macro AUC on `test`."""
    scores = {}
    for name in classifiers:
        m = fit_and_score(name, train, test, codec, derive_seed(seed, f"clf-{name}"))[0]
        scores[name] = {"accuracy": m.accuracy, "weighted_f1": m.weighted_f1, "macro_auc": m.macro_auc}
    return scores


TEST_FRACTION = 0.2


def evaluate_imputation(
    complete: Table,
    features: list[str],
    rate: float,
    methods: list[str] | None = None,
    classifiers: list[str] | None = None,
    seed: int = 0,
    gain_config: GainConfig | None = None,
) -> DiffReport:
    """Benchmark imputation methods by classifier-metric deltas.

    Splits the pristine table (TEST_FRACTION held out), records pristine metrics, injects missingness
    into both split copies, then per method: impute, retrain identically, and
    report absolute metric differences plus their means over classifiers.
    Classes absent from the test split, and so from every scoring's
    `Metrics.absent_classes`, are warned once, after every scoring.
    """
    schema = complete.schema
    feature_names = tuple(a.name for a in schema.features)
    for name in features:
        if name not in feature_names:
            raise DataError(f"cannot inject missing cells into {name!r}: not a feature attribute")
    if set(map(schema.index_of, features)) & complete.missing_rows().keys():
        raise DataError("the benchmark table must be complete in the injected features")
    methods = list(methods) if methods is not None else ["sta", "mice", "gain"]
    classifiers = list(classifiers) if classifiers is not None else ["lr", "dt", "rf", "mlp", "svm"]
    if not classifiers:
        raise DataError("no classifiers to score the imputation methods with")
    for name in methods:
        if name not in METHODS:
            raise DataError(f"unknown imputation method {name!r}")
    for name in classifiers:
        if name not in CLASSIFIERS:
            raise DataError(f"unknown classifier {name!r}")
    for what, names in (("imputation method", methods), ("classifier", classifiers)):
        if len(set(names)) < len(names):
            raise DataError(f"each {what} may be named once, got {names}")
    if not 0 < rate < 1:
        raise DataError(f"rate must be in (0, 1), got {rate}")

    train, test = split_stratified(complete, TEST_FRACTION, derive_seed(seed, "split"))
    codec = build_codec(train, attributes=feature_names)
    pristine = _classifier_metrics(train, test, codec, classifiers, seed)

    train_missing, _ = inject_missing(train, features, rate, derive_seed(seed, "inject-train"))
    test_missing, _ = inject_missing(test, features, rate, derive_seed(seed, "inject-test"))
    gain_config = gain_config or GainConfig()

    report_methods: dict[str, MethodScores] = {}
    for name in methods:
        imputed = _impute_split(name, train_missing, test_missing, (train, test), seed, gain_config)
        per_clf = {}
        for clf, s in _classifier_metrics(*imputed, codec, classifiers, seed).items():
            p = pristine[clf]
            per_clf[clf] = {
                **s,
                "accuracy_diff": abs(p["accuracy"] - s["accuracy"]) * 100.0,
                "f1_diff": abs(p["weighted_f1"] - s["weighted_f1"]) * 100.0,
                "auc_diff": abs(p["macro_auc"] - s["macro_auc"]),
            }
        report_methods[name] = MethodScores(per_clf, *(
            float(np.mean([row[key] for row in per_clf.values()]))
            for key in ("accuracy_diff", "f1_diff", "auc_diff")
        ))

    absent = [c for c, n in class_histogram(test).items() if not n]
    if absent:
        warnings.warn(AbsentClassWarning(absent))
    return DiffReport(tuple(features), rate, seed, pristine, report_methods)
