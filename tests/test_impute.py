import dataclasses
import re
import warnings

import numpy as np
import pytest

from twkit import default_synthesis_spec, synthesize_corpus
from twkit.encoding import EncodedMatrix, build_codec, decode, encode, expand_mask
from twkit.errors import CodecError, DataError
from twkit import impute
from twkit.impute import (
    GainConfig,
    _logistic_ovr_predict,
    evaluate_imputation,
    gain_impute_table,
    impute_gain,
    impute_mice,
    impute_sta,
    train_gain,
)
from twkit.metrics import AbsentClassWarning
from twkit.nn import forward
from twkit.schema import CATEGORICAL, Schema
from twkit.seeds import derive_seed
from twkit.table import Table, class_histogram, inject_missing, split_stratified

FAST_GAIN = GainConfig(epochs=60, batch_size=64)


def small_corpus(n=120, seed=0):
    return synthesize_corpus(default_synthesis_spec(), n, seed=seed)


class TestSta:
    def test_mode_fill(self, schema):
        rows = [
            (1, 1, 1, 1, 178.0, 0, 0, 3, 1, 1, "RW"),
            (1, 1, 1, 1, 178.0, 0, 0, 3, 1, 1, "RW"),
            (1, 1, 1, 1, 178.0, 0, 1, 3, 1, 1, "RW"),
            (1, 1, 1, 1, 178.0, 0, None, 3, 1, 1, "RW"),
        ]
        table = Table(schema, tuple(rows))
        out = impute_sta(table)
        assert out.rows[3][schema.index_of("hairstyle")] == 0

    def test_mode_tie_breaks_to_earliest_code(self, schema):
        rows = [
            (1, 1, 1, 1, 178.0, 0, 0, 3, 1, 1, "RW"),
            (1, 1, 1, 1, 178.0, 0, 1, 3, 1, 1, "RW"),
            (1, 1, 1, 1, 178.0, 0, None, 3, 1, 1, "RW"),
        ]
        out = impute_sta(Table(schema, tuple(rows)))
        assert out.rows[2][schema.index_of("hairstyle")] == 0

    def test_mean_fill(self, schema):
        rows = [
            (1, 1, 1, 1, 170.0, 0, 0, 3, 1, 1, "RW"),
            (1, 1, 1, 1, 190.0, 0, 0, 3, 1, 1, "RW"),
            (1, 1, 1, 1, None, 0, 0, 3, 1, 1, "RW"),
        ]
        out = impute_sta(Table(schema, tuple(rows)))
        assert out.rows[2][schema.index_of("height")] == 180.0

    def test_complete_table_unchanged(self):
        table = small_corpus(40)
        assert impute_sta(table).rows == table.rows

    def test_entirely_missing_column_rejected(self, schema):
        rows = [(1, 1, 1, 1, None, 0, 0, 3, 1, 1, "RW")] * 3
        with pytest.raises(DataError, match="height"):
            impute_sta(Table(schema, tuple(rows)))


class TestMice:
    def test_complete_table_unchanged(self):
        table = small_corpus(40)
        assert impute_mice(table, rounds=3).rows == table.rows

    def test_rounds_validated(self):
        with pytest.raises(DataError):
            impute_mice(small_corpus(20), rounds=0)

    def test_linear_relation_recovered(self, schema):
        # height = 2 * t_id exactly; regression on the one-hot design recovers it
        rng = np.random.default_rng(0)
        t_codes = (1, 2, 10, 19, 20)
        rows = []
        for i in range(120):
            t = int(rng.choice(t_codes))
            rows.append((int(rng.integers(1, 12)), t, 1, 1, 2.0 * t,
                         int(rng.integers(0, 4)), int(rng.integers(0, 2)),
                         int(rng.integers(0, 5)), 1, int(rng.integers(0, 7)),
                         "RW" if rng.random() < 0.5 else "AW"))
        table = Table(schema, tuple(rows))
        injected, _ = inject_missing(table, ["height"], 0.3, seed=1)
        out = impute_mice(injected, rounds=3)
        i_h, i_t = schema.index_of("height"), schema.index_of("t_id")
        for row in out.rows:
            assert row[i_h] == pytest.approx(2.0 * row[i_t], abs=1e-6)

    def test_constant_predictor_warns_once(self, schema):
        rng = np.random.default_rng(2)
        rows = [(int(rng.integers(1, 12)), 1, 1, 1, float(rng.normal(180.0, 5.0)), 0, 0, 3, 1, 1,
                 "RW" if rng.random() < 0.5 else "AW") for _ in range(60)]
        injected, _ = inject_missing(Table(schema, tuple(rows)), ["height"], 0.3, seed=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            impute_mice(injected, rounds=3)
        assert len(caught) == 1
        message = str(caught[0].message)
        assert "'t_id'" in message and "'armor_type'" in message

    def test_observed_cells_untouched(self, schema):
        table = small_corpus(80, seed=3)
        injected, mask = inject_missing(table, ["headgear", "height"], 0.3, seed=4)
        out = impute_mice(injected, rounds=2)
        for i, row in enumerate(injected.rows):
            for j, cell in enumerate(row):
                if cell is not None:
                    assert out.rows[i][j] == cell

    def test_imputed_values_schema_valid(self, schema):
        table = small_corpus(80, seed=6)
        injected, _ = inject_missing(table, ["headgear", "weapon", "height"], 0.3, seed=7)
        out = impute_mice(injected, rounds=2)
        assert out.is_complete()
        heights = [r[schema.index_of("height")] for r in table.rows]
        for row in out.rows:
            h = row[schema.index_of("height")]
            assert min(heights) <= h <= max(heights)


def _reference_design_matrix(columns, attrs, skip, constant):
    """The design impute_mice rebuilt for every (round, column) before it kept
    one block per attribute: intercept plus every non-constant other column."""
    parts = [np.ones((len(columns[0]), 1))]
    for j, attr in enumerate(attrs):
        if j == skip:
            continue
        col = columns[j]
        if len(set(col)) < 2:
            constant[attr.name] = None
            continue
        if attr.kind == CATEGORICAL:
            block = np.zeros((len(col), len(attr.codes)))
            for i, code in enumerate(col):
                block[i, attr.code_index(code)] = 1.0
            parts.append(block)
        else:
            arr = np.asarray(col, dtype=np.float64)
            lo, hi = arr.min(), arr.max()
            parts.append(((arr - lo) / (hi - lo)).reshape(-1, 1))
    return np.hstack(parts)


def _reference_logistic_ovr(X_obs, y_codes, X_mis, codes, iters=200, lr=0.3, l2=1e-3):
    scores = np.full((len(X_mis), len(codes)), -np.inf)
    for k, code in enumerate(codes):
        target = np.array([1.0 if c == code else 0.0 for c in y_codes])
        if target.sum() == 0:
            continue
        w = np.zeros(X_obs.shape[1])
        for _ in range(iters):
            p = 1.0 / (1.0 + np.exp(-(X_obs @ w)))
            grad = X_obs.T @ (p - target) / len(target) + l2 * w
            w -= lr * grad
        scores[:, k] = X_mis @ w
    return [codes[int(np.argmax(scores[i]))] for i in range(len(X_mis))]


def _random_ovr_problem(seed):
    """A MICE-shaped design (intercept, one-hot block, one scaled column) and
    labels over K in 2..7 code indices, one class of which has a single row."""
    rng = np.random.default_rng(seed)
    n_obs, n_mis = int(rng.integers(20, 300)), int(rng.integers(1, 60))
    n = n_obs + n_mis
    levels = int(rng.integers(2, 9))
    cat = rng.integers(0, levels, size=n)
    one_hot = np.zeros((n, levels))
    one_hot[np.arange(n), cat] = 1.0
    scaled = rng.random(n)
    design = np.hstack([np.ones((n, 1)), one_hot, scaled.reshape(-1, 1)])
    k = int(rng.integers(2, 8))
    classes = np.sort(rng.choice(k + 3, size=k, replace=False))
    single = int(rng.integers(0, k))
    others = np.delete(np.arange(k), single)
    # heavily imbalanced labels that lean on the design, so the K fits disagree
    prior = np.log(rng.dirichlet(np.full(k - 1, 0.3)) + 1e-3)
    logits = (prior + rng.normal(0.0, 2.0, size=(levels, k - 1))[cat[:n_obs]]
              + np.outer(scaled[:n_obs], rng.normal(0.0, 2.0, k - 1)))
    pos = others[np.argmax(logits + rng.gumbel(size=logits.shape), axis=1)]
    rows = rng.permutation(n_obs)[:k]
    pos[rows[1:]] = others  # every class occurs, and classes[single] on one row
    pos[rows[0]] = single
    return design[:n_obs], classes[pos], design[n_obs:], classes


class TestBatchedOvrOracle:
    @pytest.mark.parametrize("seed", range(50))
    def test_matches_per_class_fits(self, seed):
        X_obs, y, X_mis, classes = _random_ovr_problem(seed)
        assert set(y.tolist()) == set(classes.tolist())
        assert min(np.count_nonzero(y == c) for c in classes) == 1
        positions = _logistic_ovr_predict(X_obs, y, X_mis, classes)
        expected = _reference_logistic_ovr(X_obs, y.tolist(), X_mis, classes.tolist())
        assert classes[positions].tolist() == expected


def _reference_impute_mice(table, rounds):
    """impute_mice as it was with a per-cell design rebuild, kept as its oracle."""
    attrs = table.schema.attributes
    missing = {j: [i for i, row in enumerate(table.rows) if row[j] is None] for j in range(len(attrs))}
    incomplete = [j for j, rows in missing.items() if rows]
    if not incomplete:
        return table
    observed = {j: [i for i, row in enumerate(table.rows) if row[j] is not None] for j in incomplete}
    columns = [list(impute_sta(table).column(a.name)) for a in attrs]
    constant = {}
    for _ in range(rounds):
        for j in incomplete:
            design = _reference_design_matrix(columns, attrs, skip=j, constant=constant)
            obs, mis = observed[j], missing[j]
            X_obs, X_mis = design[obs], design[mis]
            if attrs[j].kind == CATEGORICAL:
                y_codes = [columns[j][i] for i in obs]
                present = set(y_codes)
                seen = [c for c in attrs[j].codes if c in present]
                predicted = _reference_logistic_ovr(X_obs, y_codes, X_mis, seen)
            else:
                y = np.array([columns[j][i] for i in obs], dtype=np.float64)
                beta, *_ = np.linalg.lstsq(X_obs, y, rcond=None)
                predicted = np.clip(X_mis @ beta, y.min(), y.max()).tolist()
            for i, value in zip(mis, predicted):
                columns[j][i] = value
    if constant:
        names = ", ".join(repr(name) for name in constant)
        warnings.warn(f"constant predictors dropped from regression: {names}")
    rows = [tuple(columns[j][i] for j in range(len(attrs))) for i in range(len(table))]
    return table.replace_rows(rows)


def _run_both(table, rounds):
    """Rows (each cell as type and repr, so floats compare bit for bit) and
    warning texts of impute_mice and of the reference."""
    out = []
    for impute in (lambda: impute_mice(table, rounds=rounds), lambda: _reference_impute_mice(table, rounds)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = impute()
        cells = [tuple((type(c), repr(c)) for c in row) for row in result.rows]
        out.append((cells, [str(w.message) for w in caught]))
    return out


MICE_ORACLE_FEATURES = [
    ["height"],
    ["headgear", "height"],
    ["hairstyle", "weapon", "height"],
    ["hairstyle", "headgear", "weapon", "height"],
]


class TestMiceOracle:
    @pytest.mark.parametrize("rounds", [1, 3, 10])
    @pytest.mark.parametrize("features", MICE_ORACLE_FEATURES)
    def test_matches_reference(self, corpus_200, features, rounds):
        injected, _ = inject_missing(corpus_200, features, 0.3, seed=len(features))
        new, old = _run_both(injected, rounds)
        assert new == old

    # on this 120-row corpus, injection seed 4 never reaches a fixed point in
    # 10 sweeps (40 of 40 fits) and seed 13 reaches it inside a sweep (11 fits)
    @pytest.mark.parametrize("seed", [4, 13])
    def test_matches_reference_at_default_rounds(self, seed):
        injected, _ = inject_missing(small_corpus(120, seed=11), MICE_ORACLE_FEATURES[-1], 0.3, seed=seed)
        new, old = _run_both(injected, 10)
        assert new == old

    def test_constant_predictors_same_warning(self, schema):
        rng = np.random.default_rng(2)
        rows = [(int(rng.integers(1, 12)), 1, 1, 1, float(rng.normal(180.0, 5.0)), int(rng.integers(0, 4)),
                 0, 3, 1, 1, "RW" if rng.random() < 0.5 else "AW") for _ in range(60)]
        injected, _ = inject_missing(Table(schema, tuple(rows)), ["weapon", "height"], 0.3, seed=1)
        new, old = _run_both(injected, 3)
        assert new == old
        assert new[1] == ["constant predictors dropped from regression: "
                          "'t_id', 'corps', 'position', 'hairstyle', 'headgear', 'robe_num', 'armor_type'"]

    def test_codes_absent_from_observed_rows(self, corpus_200):
        schema = corpus_200.schema
        i_head, i_weapon = schema.index_of("headgear"), schema.index_of("weapon")
        # every headgear 3 and weapon 2 cell is blanked, so neither code is observed
        rows = [
            tuple(None if (j == i_head and c == 3) or (j == i_weapon and c == 2) else c
                  for j, c in enumerate(row))
            for row in corpus_200.rows
        ]
        injected, _ = inject_missing(corpus_200.replace_rows(rows), ["height"], 0.2, seed=9)
        assert 3 not in injected.column("headgear") and 2 not in injected.column("weapon")
        for rounds in (1, 3):
            new, old = _run_both(injected, rounds)
            assert new == old

    def test_equal_but_not_identical_cells_kept(self, corpus_200):
        # observed cells equal to a code (1.0 for 1) keep their own value
        injected, _ = inject_missing(corpus_200, ["headgear", "height"], 0.3, seed=4)
        i_corps = injected.schema.index_of("corps")
        rows = [r[:i_corps] + (float(r[i_corps]),) + r[i_corps + 1:] for r in injected.rows]
        new, old = _run_both(injected.replace_rows(rows), 1)
        assert new == old


def _count_mice_fits(monkeypatch, table, rounds):
    """The number of column fits (logistic or least squares) impute_mice makes."""
    fits = []

    def counted(fit):
        def wrapper(*args, **kwargs):
            fits.append(fit)
            return fit(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(impute, "_logistic_ovr_predict", counted(impute._logistic_ovr_predict))
    monkeypatch.setattr(np.linalg, "lstsq", counted(np.linalg.lstsq))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        impute_mice(table, rounds=rounds)
    monkeypatch.undo()
    return len(fits)


class TestMiceFixedPoint:
    def test_one_incomplete_column_fits_once(self, monkeypatch, corpus_200):
        # with no other incomplete column, nothing can go stale after the first fit
        injected, _ = inject_missing(corpus_200, ["height"], 0.3, seed=1)
        assert _count_mice_fits(monkeypatch, injected, 10) == 1

    def test_sweeps_end_at_the_fixed_point(self, monkeypatch, corpus_200):
        injected, _ = inject_missing(corpus_200, MICE_ORACLE_FEATURES[-1], 0.3, seed=4)
        assert _count_mice_fits(monkeypatch, injected, 10) == 12
        assert _count_mice_fits(monkeypatch, injected, 50) <= 12


def _train_gain(table, seed, config=FAST_GAIN):
    enc = encode(table)
    return train_gain(enc, expand_mask(table, enc.codec), config, seed)


class TestGain:
    def test_deterministic(self):
        table = small_corpus(100, seed=9)
        injected, _ = inject_missing(table, ["headgear", "height"], 0.3, seed=10)
        m1 = _train_gain(injected, seed=11)
        m2 = _train_gain(injected, seed=11)
        for w1, w2 in zip(m1.generator.weights, m2.generator.weights):
            np.testing.assert_array_equal(w1, w2)
        t1 = impute_gain(m1, injected)
        t2 = impute_gain(m2, injected)
        assert t1.rows == t2.rows

    def test_observed_cells_pass_through(self, schema):
        table = small_corpus(100, seed=12)
        injected, _ = inject_missing(table, ["headgear", "height"], 0.3, seed=13)
        model = _train_gain(injected, seed=14)
        out = impute_gain(model, injected)
        for i, row in enumerate(injected.rows):
            for j, cell in enumerate(row):
                if cell is not None:
                    assert out.rows[i][j] == cell

    def test_observed_height_outside_training_range_kept(self, schema):
        # the codec clamps a height outside the training range; the fill must not
        train, _ = inject_missing(small_corpus(100, seed=12), ["headgear", "height"], 0.3, seed=13)
        model = _train_gain(train, seed=14)
        h, g = schema.index_of("height"), schema.index_of("headgear")
        top = max(r[h] for r in train.rows if r[h] is not None)
        row = list(small_corpus(1, seed=15).rows[0])
        row[h], row[g] = top + 10.5, None
        (out,) = impute_gain(model, Table(schema, (tuple(row),))).rows
        assert out[h] == top + 10.5
        assert out[g] is not None

    def test_fully_observed_rows_returned_exactly(self, schema):
        table = small_corpus(60, seed=15)
        model = _train_gain(table, seed=16)
        out = impute_gain(model, table)
        assert out.rows == table.rows

    def test_imputed_schema_valid_and_complete(self, schema):
        table = small_corpus(100, seed=17)
        injected, _ = inject_missing(
            table, ["hairstyle", "headgear", "weapon", "height"], 0.3, seed=18
        )
        model = _train_gain(injected, seed=19)
        out = impute_gain(model, injected)
        assert out.is_complete()
        heights = [r[schema.index_of("height")] for r in injected.rows if r[4] is not None]
        for row in out.rows:
            assert min(heights) <= row[schema.index_of("height")] <= max(heights)

    def test_reconstruction_improves_with_alpha(self, schema):
        # with a heavy reconstruction weight, training reduces observed-cell MSE
        table = small_corpus(100, seed=20)
        injected, _ = inject_missing(table, ["headgear", "height"], 0.3, seed=21)
        enc = encode(injected)
        m_exp = expand_mask(injected, enc.codec)
        config = GainConfig(epochs=150, batch_size=64, alpha=1e4)
        from twkit.impute import _gain_nets
        from twkit.nn import mse

        gen0, _ = _gain_nets(enc.codec.width, enc.codec.categorical_spans(), None, 22)
        rng = np.random.default_rng(0)
        z = rng.uniform(0, 0.01, enc.values.shape)
        x_tilde = m_exp * enc.values + (1 - m_exp) * z
        before, _ = mse(forward(gen0, np.hstack([x_tilde, m_exp]))[0], enc.values, mask=m_exp)
        model = train_gain(enc, m_exp, config, seed=22)
        after, _ = mse(
            forward(model.generator, np.hstack([x_tilde, m_exp]))[0], enc.values, mask=m_exp
        )
        assert after <= before

    def test_codec_mismatch_rejected(self, schema):
        # a table whose schema declares other headgear codes than the model's codec
        table = small_corpus(50, seed=23)
        model = _train_gain(table, seed=24)
        other = Schema(tuple(
            dataclasses.replace(a, categories=a.categories + ((9, "other"),)) if a.name == "headgear" else a
            for a in schema.attributes
        ))
        with pytest.raises(CodecError, match="'headgear'"):
            impute_gain(model, Table(other, table.rows))

    def test_uncovered_attribute_rejected(self, schema):
        # a table with an attribute the model's codec lacks cannot be filled
        table = small_corpus(50, seed=23)
        model = _train_gain(table, seed=24)
        other = Schema(schema.attributes + (dataclasses.replace(schema.attribute("headgear"), name="extra"),))
        with pytest.raises(CodecError, match="'extra'"):
            impute_gain(model, Table(other, tuple(row + (None,) for row in table.rows)))

    # epochs below 1 are covered through the CLI in tests/test_cli.py
    @pytest.mark.parametrize("kwargs", [{"batch_size": 0}, {"alpha": -0.5}])
    def test_config_out_of_range_rejected(self, kwargs):
        with pytest.raises(DataError, match=next(iter(kwargs))):
            GainConfig(**kwargs)

    @pytest.mark.parametrize("n", [1, 40])
    def test_entirely_missing_attribute_rejected(self, schema, n):
        # no observed cell to learn from: rejected before training, as in STA
        table = small_corpus(n, seed=25)
        i = schema.index_of("headgear")
        rows = tuple(r[:i] + (None,) + r[i + 1:] for r in table.rows)
        with pytest.raises(DataError, match="attribute 'headgear' is entirely missing"):
            gain_impute_table(table.replace_rows(rows), FAST_GAIN, seed=27)

    def test_gain_impute_table_convenience(self, schema):
        table = small_corpus(80, seed=25)
        injected, _ = inject_missing(table, ["headgear"], 0.3, seed=26)
        out = gain_impute_table(injected, FAST_GAIN, seed=27)
        assert out.is_complete()
        assert len(out) == len(table)


def _observed_grid_reference(table):
    """MaskMatrix.from_table: the observed grid GAIN's callers built beside the table."""
    grid = [[0 if cell is None else 1 for cell in row] for row in table.rows]
    return np.array(grid, dtype=np.int8).reshape(len(table), len(table.schema.attributes))


def _expand_mask_reference(table, codec):
    """expand_mask over the observed grid, indexed by each block's table column."""
    grid = _observed_grid_reference(table)
    out = np.zeros((len(table), codec.width), dtype=np.float64)
    for block in codec.blocks:
        col = table.schema.index_of(block.attribute)
        out[:, block.start : block.stop] = grid[:, col : col + 1]
    return out


def _gain_reference(train, tables, config, seed):
    """The GAIN path before the table held the only record of its missing
    cells: train under the codec built from `train` with the separately built
    mask, then gain_reconstruction and decode for each of `tables`."""
    codec = build_codec(train)
    model = train_gain(encode(train, codec_source=codec), _expand_mask_reference(train, codec), config, seed)
    out = []
    for table in tables:
        x = encode(table, codec_source=codec).values
        m = _expand_mask_reference(table, codec)
        z = np.random.default_rng(derive_seed(seed, "gain-noise")).uniform(0.0, 0.01, size=x.shape)
        g_out, _ = forward(model.generator, np.hstack([m * x + (1.0 - m) * z, m]))
        out.append(decode(EncodedMatrix(m * x + (1.0 - m) * g_out, codec), table.schema))
    return out


def _typed_cells(table):
    return [[(type(cell), repr(cell)) for cell in row] for row in table.rows]


def _typed_fill(table, reference):
    """The typed cells GAIN should return: the reference path's cell where
    `table` has None, and the table's own observed cell everywhere else."""
    return _typed_cells(table.replace_rows(
        tuple(ref if cell is None else cell for cell, ref in zip(row, ref_row))
        for row, ref_row in zip(table.rows, reference.rows)
    ))


GAIN_ORACLE_FEATURES = ["headgear", "weapon", "height"]


class TestGainOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gain_impute_table_matches_reference(self, corpus_200, seed):
        injected, _ = inject_missing(corpus_200, GAIN_ORACLE_FEATURES, 0.3, seed=seed)
        (expected,) = _gain_reference(injected, [injected], FAST_GAIN, seed)
        assert _typed_cells(gain_impute_table(injected, FAST_GAIN, seed=seed)) == _typed_fill(injected, expected)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_harness_method_matches_reference(self, corpus_200, seed):
        train, test = split_stratified(corpus_200, impute.TEST_FRACTION, derive_seed(seed, "split"))
        train_missing, _ = inject_missing(train, GAIN_ORACLE_FEATURES, 0.3, derive_seed(seed, "inject-train"))
        test_missing, _ = inject_missing(test, GAIN_ORACLE_FEATURES, 0.3, derive_seed(seed, "inject-test"))
        got = impute._impute_split("gain", train_missing, test_missing, (train, test), seed, FAST_GAIN)
        tables = [train_missing, test_missing]
        expected = _gain_reference(train_missing, tables, FAST_GAIN, derive_seed(seed, "gain"))
        assert [_typed_cells(t) for t in got] == [_typed_fill(t, e) for t, e in zip(tables, expected)]


class TestHarness:
    def test_identity_oracle_zero_diffs(self):
        table = small_corpus(140, seed=28)
        report = evaluate_imputation(
            table,
            features=["hairstyle", "headgear"],
            rate=0.3,
            methods=["oracle"],
            classifiers=["lr", "dt"],
            seed=29,
        )
        scores = report.methods["oracle"]
        assert scores.avg_accuracy_diff == 0.0
        assert scores.avg_f1_diff == 0.0
        assert scores.avg_auc_diff == 0.0

    def test_absent_classes_warned_once_per_benchmark(self, schema):
        table = small_corpus(140, seed=32)
        _, test = split_stratified(table, 0.2, derive_seed(33, "split"))
        missing = tuple(c for c, n in class_histogram(test).items() if n == 0)
        assert len(missing) >= 2
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evaluate_imputation(
                table, ["headgear", "height"], 0.3,
                methods=["sta", "oracle"], classifiers=["lr", "dt"], seed=33,
            )
        absent = [w for w in caught if issubclass(w.category, AbsentClassWarning)]
        # six scorings (pristine, sta, oracle for two classifiers), one warning
        assert len(absent) == 1
        assert absent[0].message.classes == missing
        assert all(repr(c) in str(absent[0].message) for c in missing)

    def test_unknown_method_rejected(self):
        with pytest.raises(DataError):
            evaluate_imputation(small_corpus(60), ["height"], 0.3, methods=["nope"])

    def test_no_classifiers_rejected_before_scoring(self, monkeypatch):
        # the mean difference over no classifiers is NaN, which JSON cannot hold
        def no_scoring(*args, **kwargs):
            raise AssertionError("a classifier was scored before the classifiers were checked")

        monkeypatch.setattr(impute, "fit_and_score", no_scoring)
        with pytest.raises(DataError, match="no classifiers"):
            evaluate_imputation(small_corpus(60), ["height"], 0.3, classifiers=[])

    def test_rate_validated_via_inject(self):
        with pytest.raises(DataError):
            evaluate_imputation(small_corpus(60), ["height"], 0.0, methods=["sta"],
                                classifiers=["dt"])

    @pytest.mark.parametrize("rate", [0.0, 1.0, 1.5, -0.2])
    def test_rate_rejected_before_scoring(self, monkeypatch, rate):
        def no_scoring(*args, **kwargs):
            raise AssertionError("a classifier was scored before the rate was checked")

        monkeypatch.setattr(impute, "fit_and_score", no_scoring)
        with pytest.raises(DataError, match=re.escape(f"rate must be in (0, 1), got {rate}")):
            evaluate_imputation(small_corpus(60), ["height"], rate)

    def test_incomplete_input_rejected(self, schema):
        table = small_corpus(60, seed=30)
        injected, _ = inject_missing(table, ["height"], 0.3, seed=31)
        with pytest.raises(DataError):
            evaluate_imputation(injected, ["height"], 0.3, methods=["sta"], classifiers=["dt"])

    def test_sta_report_structure(self):
        table = small_corpus(140, seed=32)
        report = evaluate_imputation(
            table, ["headgear", "height"], 0.3,
            methods=["sta"], classifiers=["lr", "dt"], seed=33,
        )
        doc = report.to_dict()
        assert set(doc["methods"]) == {"sta"}
        assert set(doc["methods"]["sta"]["per_classifier"]) == {"lr", "dt"}
        assert doc["methods"]["sta"]["avg_accuracy_diff"] >= 0.0
        text = report.format_text()
        assert "sta" in text and "Avg Accuracy" in text

    def test_report_key_order(self):
        # the key order of imputation.json
        report = evaluate_imputation(
            small_corpus(140, seed=32), ["headgear", "height"], 0.3,
            methods=["sta", "oracle"], classifiers=["lr", "dt"], seed=33,
        )
        doc = report.to_dict()
        assert list(doc) == ["features", "rate", "seed", "pristine", "methods"]
        assert list(doc["methods"]) == ["sta", "oracle"]
        for clf in ("lr", "dt"):
            assert list(doc["pristine"][clf]) == ["accuracy", "weighted_f1", "macro_auc"]
        for scores in doc["methods"].values():
            assert list(scores) == ["per_classifier", "avg_accuracy_diff", "avg_f1_diff", "avg_auc_diff"]
            assert list(scores["per_classifier"]) == ["lr", "dt"]
            for row in scores["per_classifier"].values():
                assert list(row) == ["accuracy", "weighted_f1", "macro_auc", "accuracy_diff", "f1_diff", "auc_diff"]
