"""Two-stage minority-class augmentation.

Stage 1 (SMOTENC) interpolates new minority rows between same-class
neighbors: numerics move along the segment between the two parents, each
categorical takes the majority vote of the seed row's k nearest same-class
neighbors (k = min(5, class size - 1); a tie keeps the seed row's code).
Stage 2 (a conditional tabular GAN with generator, discriminator and an
auxiliary classifier that penalizes label-inconsistent samples) tops classes
up to their final targets. Original rows ride through verbatim and every row
carries an origin flag: real, smotenc, or cgan.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .encoding import Codec, EncodedMatrix, build_codec, decode_cells, encode, label_indices
from .errors import DataError, TrainingDiverged
from .jsonio import integer, read_json
from .nn import (
    MLP,
    AdamState,
    adam_step,
    backward,
    binary_cross_entropy,
    forward,
    init_mlp,
    iter_batches,
    one_hot,
    softmax_cross_entropy,
)
from .schema import NUMERIC, Code, Schema
from .table import ORIGIN_CGAN, ORIGIN_REAL, ORIGIN_SMOTENC, Row, Table, class_histogram
from .seeds import derive_seed

SMOTENC_K = 5  # nearest same-class neighbours per seed row, at most the class size - 1


def _feature_arrays(table: Table) -> tuple[np.ndarray, np.ndarray]:
    """Every row's numeric features as an (n, p) float array, a blank cell
    NaN, and its categorical features as an (n, q) array of code indices, a
    blank cell -1; columns in declared feature order."""
    feats, n = table.schema.features, len(table)
    num = np.array([table.column(a.name) for a in feats if a.kind == NUMERIC], dtype=float)
    cat = np.array([a.code_indices(table.column(a.name)) for a in feats if a.kind != NUMERIC], dtype=np.intp)
    return num.reshape(-1, n).T, cat.reshape(-1, n).T


def categorical_penalty(num: np.ndarray, member: np.ndarray) -> float:
    """Median of the numeric-feature standard deviations over the class rows
    (`num`'s rows where `member` is set), blank cells left out.

    Falls back to the table-wide value (then 1.0) when the class is constant
    in every numeric feature, so categorical mismatches keep a nonzero cost.
    """
    for values in (num[member], num):
        columns = [col[~np.isnan(col)] for col in values.T]
        stds = [float(np.std(col)) for col in columns if len(col) > 1]
        if stds and np.median(stds) > 0:
            return float(np.median(stds))
    return 1.0


def _squared_distances(num: np.ndarray, cat: np.ndarray, penalty: float) -> np.ndarray:
    """Pairwise mixed-feature squared distances between the rows of complete
    feature arrays: numeric squared differences plus penalty^2 per
    categorical mismatch."""
    dist2 = ((num[:, None, :] - num[None, :, :]) ** 2).sum(axis=2)
    dist2 += (penalty**2) * (cat[:, None, :] != cat[None, :, :]).sum(axis=2)
    return dist2


def smotenc_generate(table: Table, cls: Code, n_new: int, seed: int) -> list[Row]:
    """Synthesize `n_new` rows of class `cls` between existing class members,
    each seed row's k = min(SMOTENC_K, m - 1) nearest neighbours among the
    class's m rows."""
    schema = table.schema
    if cls not in schema.class_codes:
        raise DataError(f"unknown class {cls!r}")
    member = np.array(table.labels(), dtype=object) == cls
    m = int(member.sum())
    if m < 2:
        raise DataError(f"class {cls!r} has {m} member(s); SMOTENC needs >=2")
    num_all, cat_all = _feature_arrays(table)
    num, cat = num_all[member], cat_all[member]
    if np.isnan(num).any() or (cat < 0).any():
        raise DataError(f"class {cls!r} has a blank feature cell; SMOTENC needs every feature on every row")

    # each row's neighbours, nearest first, ties in row order, itself left out
    k = min(SMOTENC_K, m - 1)
    order = np.argsort(_squared_distances(num, cat, categorical_penalty(num_all, member)), axis=1, kind="stable")
    neighbours = order[order != np.arange(m)[:, None]].reshape(m, m - 1)[:, :k]
    # each categorical takes the majority code of the seed row's neighbours;
    # a tie keeps the seed row's code
    votes = (cat[neighbours][..., None] == np.arange(cat.max(initial=0) + 1)).sum(axis=1)
    unique = (votes == votes.max(axis=2, keepdims=True)).sum(axis=2) == 1
    voted = np.where(unique, votes.argmax(axis=2), cat)

    # each new row draws its seed row, its neighbour and its fraction one
    # scalar at a time, in that order: bulk draws would change the stream
    rng = np.random.default_rng(seed)
    ri, slot, u = np.empty(n_new, dtype=np.intp), np.empty(n_new, dtype=np.intp), np.empty(n_new)
    for t in range(n_new):
        ri[t], slot[t], u[t] = rng.integers(0, m), rng.integers(0, k), rng.random()
    si = neighbours[ri, slot]
    feats = schema.features
    columns = {schema.label.name: [cls] * n_new}
    new_num = num[ri] + u[:, None] * (num[si] - num[ri])
    columns.update(zip([a.name for a in feats if a.kind == NUMERIC], new_num.T.tolist()))
    for a, col in zip([a for a in feats if a.kind != NUMERIC], voted[ri].T.tolist()):
        columns[a.name] = list(map(a.codes.__getitem__, col))
    return list(zip(*(columns[name] for name in schema.names)))


# -- conditional tabular GAN -----------------------------------------------------


CGAN_NOISE_DIM = 32
CGAN_HIDDEN = (128, 128)


@dataclass(frozen=True)
class CganConfig:
    epochs: int = 300
    batch_size: int = 128

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise DataError(f"CGAN epochs and batch_size must be >= 1, got {self.epochs} and {self.batch_size}")


@dataclass
class TableCganModel:
    generator: MLP
    classifier: MLP
    codec: Codec  # feature columns only
    schema: Schema


def train_table_cgan(
    encoded: EncodedMatrix,
    labels: np.ndarray,
    config: CganConfig,
    seed: int,
    schema: Schema,
) -> TableCganModel:
    """Alternating updates: D learns real-vs-fake conditioned on class; C learns
    classes on real rows; G fools D, matches per-class batch feature means, and
    is penalized when C misclassifies its samples. The three generator terms
    are weighted equally."""
    x = encoded.values
    y = np.asarray(labels, dtype=np.int64)
    k = len(schema.class_codes)
    counts = np.bincount(y, minlength=k)
    lacking = [str(schema.class_codes[i]) for i in range(k) if counts[i] == 1]
    if lacking:
        raise DataError(f"classes present in training data need >=2 rows; lacking: {lacking}")
    d = x.shape[1]
    spans = encoded.codec.categorical_spans()
    gen = init_mlp(
        (CGAN_NOISE_DIM + k,) + CGAN_HIDDEN + (d,),
        seed=derive_seed(seed, "cgan-generator"),
        hidden_activation="tanh",
        output_activation="softmax_blocks",
        output_blocks=tuple(spans),
    )
    disc = init_mlp(
        (d + k,) + CGAN_HIDDEN + (1,),
        seed=derive_seed(seed, "cgan-discriminator"),
        hidden_activation="tanh",
        output_activation="sigmoid",
    )
    clf = init_mlp(
        (d,) + CGAN_HIDDEN + (k,),
        seed=derive_seed(seed, "cgan-classifier"),
        hidden_activation="tanh",
        output_activation="identity",
    )
    g_state = AdamState.for_mlp(gen)
    d_state = AdamState.for_mlp(disc)
    c_state = AdamState.for_mlp(clf)
    rng = np.random.default_rng(derive_seed(seed, "cgan-batches"))
    n = x.shape[0]

    for epoch in range(config.epochs):
        for b_i, batch in enumerate(iter_batches(n, config.batch_size, rng)):
            xb, yb = x[batch], y[batch]
            y1h = one_hot(yb, k)
            z = rng.standard_normal((len(batch), CGAN_NOISE_DIM))
            gen_in = np.hstack([z, y1h])

            # G is not updated until the end of the step, so one forward
            # serves both the discriminator and the generator update
            fake, cache_g = forward(gen, gen_in)
            fake_in = np.hstack([fake, y1h])

            # discriminator
            d_real, cache_r = forward(disc, np.hstack([xb, y1h]))
            loss_r, grad_r = binary_cross_entropy(d_real, np.ones_like(d_real))
            d_fake, cache_f = forward(disc, fake_in)
            loss_f, grad_f = binary_cross_entropy(d_fake, np.zeros_like(d_fake))
            grads_r, _ = backward(disc, cache_r, 0.5 * grad_r, inputs=False)
            grads_f, _ = backward(disc, cache_f, 0.5 * grad_f, inputs=False)
            adam_step(disc, grads_r + grads_f, d_state)

            # classifier on real rows
            logits, cache_c = forward(clf, xb)
            loss_c, dlogits = softmax_cross_entropy(logits, yb)
            grads_c, _ = backward(clf, cache_c, dlogits, inputs=False)
            adam_step(clf, grads_c, c_state)

            # generator
            d_fake, cache_f = forward(disc, fake_in)
            loss_adv, grad_adv = binary_cross_entropy(d_fake, np.ones_like(d_fake))
            _, d_in_grad = backward(disc, cache_f, grad_adv, params=False)
            fake_grad = d_in_grad[:, :d].copy()

            # per-class batch mean matching
            loss_moment = 0.0
            present = np.unique(yb)
            for c in present:
                sel = yb == c
                mu_f = fake[sel].mean(axis=0)
                mu_r = xb[sel].mean(axis=0)
                diff = mu_f - mu_r
                loss_moment += float((diff**2).mean())
                fake_grad[sel] += 2.0 * diff / (d * len(present) * int(sel.sum()))
            loss_moment /= len(present)

            # semantic integrity: C should assign the conditioning class
            logits_f, cache_cf = forward(clf, fake)
            loss_sem, dlogits_f = softmax_cross_entropy(logits_f, yb)
            _, c_in_grad = backward(clf, cache_cf, dlogits_f, params=False)
            fake_grad += c_in_grad

            grads_g, _ = backward(gen, cache_g, fake_grad, inputs=False)
            adam_step(gen, grads_g, g_state)

            losses = (loss_r, loss_f, loss_c, loss_adv, loss_moment, loss_sem)
            if not all(np.isfinite(v) for v in losses):
                raise TrainingDiverged("non-finite CGAN loss", epoch=epoch, batch=b_i)

    return TableCganModel(gen, clf, encoded.codec, schema)


def sample_table_cgan(model: TableCganModel, cls: Code, n: int, seed: int) -> list[Row]:
    """Generate `n` rows of class `cls` (decoded via block argmax / unscale)."""
    schema = model.schema
    if cls not in schema.class_codes:
        raise DataError(f"unknown class {cls!r}")
    if n == 0:
        return []
    k = len(schema.class_codes)
    cls_idx = schema.label.code_index(cls)
    rng = np.random.default_rng(derive_seed(seed, f"cgan-sample-{cls}"))
    z = rng.standard_normal((n, CGAN_NOISE_DIM))
    y1h = one_hot(np.full(n, cls_idx), k)
    fake, _ = forward(model.generator, np.hstack([z, y1h]))
    label_name = schema.label.name
    rows = []
    for cells in decode_cells(fake, model.codec):
        cells[label_name] = cls
        rows.append(tuple(cells[name] for name in schema.names))
    return rows


AGREEMENT_ROWS_PER_CLASS = 200
AGREEMENT_SEED = 0


def cgan_class_agreement(model: TableCganModel) -> float:
    """Fraction of generated rows whose auxiliary-classifier argmax equals the
    conditioning class (a training-quality diagnostic): AGREEMENT_ROWS_PER_CLASS
    rows per class, each class sampled from AGREEMENT_SEED."""
    schema = model.schema
    total = 0
    agree = 0
    for cls in schema.class_codes:
        rows = sample_table_cgan(model, cls, AGREEMENT_ROWS_PER_CLASS, AGREEMENT_SEED)
        sub = Table(schema, tuple(rows))
        enc = encode(sub, codec_source=model.codec)
        logits, _ = forward(model.classifier, enc.values)
        predicted = np.argmax(logits, axis=1)
        agree += int((predicted == schema.label.code_index(cls)).sum())
        total += AGREEMENT_ROWS_PER_CLASS
    return agree / total


# -- plans and the two-stage pipeline ---------------------------------------------


@dataclass(frozen=True)
class AugmentPlan:
    stage1: dict[Code, int]
    stage2: dict[Code, int]

    def validate(self, counts: dict[Code, int]) -> None:
        """stage2 >= stage1 >= count per class, and a class under 2 rows is held at its count."""
        for cls, count in counts.items():
            s1 = self.stage1.get(cls, count)
            s2 = self.stage2.get(cls, count)
            if not (s2 >= s1 >= count):
                raise DataError(
                    f"plan for class {cls!r} must satisfy stage2 >= stage1 >= count "
                    f"({s2} >= {s1} >= {count})"
                )
            if count < 2 and s2 > count:
                raise DataError(f"plan grows class {cls!r}, which has {count} row(s): augmenting needs >= 2")


def load_plan(path, schema: Schema) -> AugmentPlan:
    label = schema.label

    def targets(doc, stage: str) -> dict[Code, int]:
        return {label.parse_token(c): integer(f"{stage} {c!r}", t) for c, t in doc[stage].items()}

    def parse(doc) -> AugmentPlan:
        return AugmentPlan(stage1=targets(doc, "stage1"), stage2=targets(doc, "stage2"))

    return read_json(path, parse, "plan")


def default_augment_plan(
    counts: dict[Code, int], class_order, total: int = 1800, smote_cap: int = 200
) -> AugmentPlan:
    """Even stage-2 targets summing to `total`: classes already above their even
    share keep their real counts, the remaining budget spreads evenly over the
    rest (declared order breaks the remainder). Stage 1 lifts each class to
    min(smote_cap, its stage-2 target) via SMOTENC.

    A class with fewer than 2 rows gives SMOTENC no pair to interpolate, so it
    is held at its count in both stages, like a class above its share, and one
    warning names every such class."""
    order = [c for c in class_order]
    stage2: dict[Code, int] = {c: counts.get(c, 0) for c in order if counts.get(c, 0) < 2}
    if stage2:
        names = ", ".join(repr(c) for c in stage2)
        warnings.warn(f"classes with fewer than 2 rows held at their count: {names}")
    pool = [c for c in order if c not in stage2]
    budget = total - sum(stage2.values())
    while pool:
        share = budget // len(pool)
        fixed = [c for c in pool if counts.get(c, 0) > share]
        if not fixed:
            rem = budget - share * len(pool)
            for i, c in enumerate(pool):
                stage2[c] = share + (1 if i < rem else 0)
            break
        for c in fixed:
            stage2[c] = counts[c]
            budget -= counts[c]
            pool.remove(c)
    stage1 = {
        c: max(counts.get(c, 0), min(smote_cap, stage2[c])) for c in order
    }
    return AugmentPlan(stage1=stage1, stage2=stage2)


@dataclass(frozen=True)
class AugmentResult:
    table: Table
    origins: tuple[str, ...]


def two_stage_augment(
    table: Table,
    plan: AugmentPlan | None = None,
    cgan_config: CganConfig | None = None,
    seed: int = 0,
) -> AugmentResult:
    """SMOTENC to stage-1 targets, then conditional-GAN sampling to stage-2.

    Original rows are preserved verbatim (first, in input order) and flagged
    `real`; synthetic rows are flagged by the stage that produced them.
    """
    schema = table.schema
    if not table.is_complete():
        raise DataError("augmentation needs a class label and every feature on every row")
    counts = class_histogram(table)
    if plan is None:
        plan = default_augment_plan(counts, schema.class_codes)
    plan.validate(counts)

    rows: list[Row] = list(table.rows)
    origins: list[str] = [ORIGIN_REAL] * len(rows)
    for cls in schema.class_codes:
        need = plan.stage1.get(cls, counts[cls]) - counts[cls]
        if need <= 0:
            continue
        new_rows = smotenc_generate(table, cls, need, derive_seed(seed, f"smote-{cls}"))
        rows.extend(new_rows)
        origins.extend([ORIGIN_SMOTENC] * len(new_rows))

    # `plan.validate` keeps each stage-1 target at or above its count, and
    # SMOTENC added exactly the difference
    stage1_counts = {cls: plan.stage1.get(cls, counts[cls]) for cls in schema.class_codes}
    gaps = {cls: plan.stage2.get(cls, counts[cls]) - stage1_counts[cls] for cls in schema.class_codes}
    if any(g > 0 for g in gaps.values()):
        # a class with a single row and nothing to sample is left out of training
        held = {cls for cls in schema.class_codes if stage1_counts[cls] == 1 and gaps[cls] <= 0}
        label_idx = schema.label_index
        train_table = Table(schema, tuple(r for r in rows if r[label_idx] not in held))
        feature_names = tuple(a.name for a in schema.features)
        encoded = encode(train_table, codec_source=build_codec(train_table, feature_names))
        model = train_table_cgan(
            encoded, label_indices(train_table), cgan_config or CganConfig(),
            derive_seed(seed, "cgan"), schema,
        )
        for cls in schema.class_codes:
            if gaps[cls] <= 0:
                continue
            new_rows = sample_table_cgan(model, cls, gaps[cls], derive_seed(seed, f"cgan-{cls}"))
            rows.extend(new_rows)
            origins.extend([ORIGIN_CGAN] * len(new_rows))

    return AugmentResult(Table(schema, tuple(rows)), tuple(origins))
