import json
import re
import warnings

import numpy as np
import pytest

from twkit import default_synthesis_spec, synthesize_corpus
from twkit.augment import (
    CGAN_NOISE_DIM,
    SMOTENC_K,
    AugmentPlan,
    CganConfig,
    _feature_arrays,
    _squared_distances,
    categorical_penalty,
    default_augment_plan,
    load_plan,
    sample_table_cgan,
    smotenc_generate,
    train_table_cgan,
    two_stage_augment,
)
from twkit.encoding import build_codec, encode, label_indices
from twkit.errors import DataError
from twkit.schema import NUMERIC
from twkit.table import Table, class_histogram

FAST_CGAN = CganConfig(epochs=40, batch_size=64)


def small_corpus(n=150, seed=0):
    return synthesize_corpus(default_synthesis_spec(), n, seed=seed)


def make_row(schema, height=178.0, cls="HR", **overrides):
    cells = {"c_id": 1, "t_id": 1, "corps": 1, "position": 1, "height": height,
             "weapon": 2, "hairstyle": 1, "headgear": 2, "robe_num": 1,
             "armor_type": 1, "tw_class": cls}
    cells.update(overrides)
    return tuple(cells[name] for name in schema.names)


def _distances(schema, rows, penalty):
    num, cat = _feature_arrays(Table(schema, tuple(rows)))
    return _squared_distances(num, cat, penalty)


class TestDistance:
    def test_identical_rows_zero(self, schema):
        row = make_row(schema)
        assert _distances(schema, [row, row], penalty=3.0)[0, 1] == 0.0

    def test_single_categorical_mismatch(self, schema):
        a = make_row(schema)
        b = make_row(schema, headgear=0)
        assert _distances(schema, [a, b], penalty=3.0)[0, 1] == 9.0

    def test_three_four_five(self, schema):
        a = make_row(schema, height=178.0)
        b = make_row(schema, height=182.0, headgear=0)
        assert _distances(schema, [a, b], penalty=3.0)[0, 1] == 25.0

    def test_label_excluded(self, schema):
        a = make_row(schema, cls="HR")
        b = make_row(schema, cls="MR")
        assert _distances(schema, [a, b], penalty=3.0)[0, 1] == 0.0

    def test_symmetric_with_zero_diagonal(self, schema):
        rows = small_corpus(40, seed=3).rows
        dist2 = _distances(schema, rows, penalty=2.5)
        assert dist2.shape == (len(rows), len(rows))
        assert (dist2 == dist2.T).all()
        assert (np.diag(dist2) == 0.0).all()


class TestGenerate:
    def test_interpolation_bounds(self, schema):
        rows = (make_row(schema, height=170.0), make_row(schema, height=180.0))
        table = Table(schema, rows)
        out = smotenc_generate(table, "HR", 30, seed=0)
        i_h = schema.index_of("height")
        for row in out:
            assert 170.0 <= row[i_h] <= 180.0

    def test_unanimous_vote(self, schema):
        rows = tuple(make_row(schema, height=170.0 + i, headgear=3) for i in range(5))
        table = Table(schema, rows)
        out = smotenc_generate(table, "HR", 10, seed=1)
        i_hg = schema.index_of("headgear")
        assert all(row[i_hg] == 3 for row in out)

    def test_hr_sized_class(self, schema):
        rng = np.random.default_rng(2)
        rows = tuple(
            make_row(schema, height=float(rng.uniform(172, 186)), c_id=int(rng.integers(1, 12)))
            for _ in range(5)
        )
        table = Table(schema, rows)
        out = smotenc_generate(table, "HR", 45, seed=3)
        assert len(out) == 45
        heights = [r[schema.index_of("height")] for r in table.rows]
        for row in out:
            assert row[schema.label_index] == "HR"
            assert min(heights) <= row[schema.index_of("height")] <= max(heights)
        Table(schema, out)  # schema-valid

    def test_k_clamped_with_warning(self, schema):
        # three rows give each seed row two neighbours, fewer than SMOTENC_K
        rows = tuple(make_row(schema, height=170.0 + i) for i in range(3))
        table = Table(schema, rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = smotenc_generate(table, "HR", 5, seed=4)
        assert len(out) == 5

    def test_tiny_class_rejected(self, schema):
        table = Table(schema, (make_row(schema),))
        with pytest.raises(DataError):
            smotenc_generate(table, "HR", 5, seed=5)

    def test_deterministic(self, schema):
        table = small_corpus(200, seed=6)
        a = smotenc_generate(table, "RW", 20, seed=7)
        b = smotenc_generate(table, "RW", 20, seed=7)
        assert a == b

    @pytest.mark.parametrize("attribute", ["height", "headgear"])
    def test_blank_class_cell_rejected(self, schema, attribute):
        table = small_corpus(300, seed=8)
        i = schema.index_of(attribute)
        rows = list(table.rows)
        first = next(r for r, row in enumerate(rows) if row[schema.label_index] == "LR")
        rows[first] = rows[first][:i] + (None,) + rows[first][i + 1:]
        with pytest.raises(DataError, match="class 'LR' has a blank feature cell"):
            smotenc_generate(Table(schema, tuple(rows)), "LR", 5, seed=9)

    def test_numeric_on_parent_segment(self, schema):
        # single numeric feature: every synthetic height must sit between the
        # two parents, which the class min/max bound from outside
        table = small_corpus(300, seed=8)
        out = smotenc_generate(table, "AW", 50, seed=9)
        i_h = schema.index_of("height")
        i_lab = schema.label_index
        heights = [r[i_h] for r in table.rows if r[i_lab] == "AW"]
        for row in out:
            assert min(heights) - 1e-9 <= row[i_h] <= max(heights) + 1e-9


def _reference_penalty(table, cls):
    schema = table.schema
    numeric = [a.name for a in schema.features if a.kind == NUMERIC]
    if not numeric:
        return 1.0
    class_rows = [row for row in table.rows if row[schema.label_index] == cls]
    for rows in (class_rows, list(table.rows)):
        stds = []
        for name in numeric:
            j = schema.index_of(name)
            values = [row[j] for row in rows if row[j] is not None]
            if len(values) > 1:
                stds.append(float(np.std(values)))
        if stds and np.median(stds) > 0:
            return float(np.median(stds))
    return 1.0


def _reference_smotenc(table, cls, n_new, seed):
    """The row-by-row SMOTENC the array form replaced: neighbour lists from a
    per-row argsort that skips the row itself, and the neighbour vote counted
    again for every generated row."""
    schema = table.schema
    label_idx = schema.label_index
    rows = [row for row in table.rows if row[label_idx] == cls]
    k = min(SMOTENC_K, len(rows) - 1)
    if n_new == 0:
        return []
    feats = schema.features
    cols = [schema.index_of(a.name) for a in feats]
    numeric_mask = np.array([a.kind == NUMERIC for a in feats])
    num = np.array(
        [[float(r[j]) if numeric_mask[i] else 0.0 for i, j in enumerate(cols)] for r in rows]
    )[:, numeric_mask]
    cat = np.array(
        [a.code_indices([r[j] for r in rows]) for a, j in zip(feats, cols) if a.kind != NUMERIC],
        dtype=np.intp,
    ).reshape(-1, len(rows)).T
    penalty = _reference_penalty(table, cls)
    dist2 = ((num[:, None, :] - num[None, :, :]) ** 2).sum(axis=2)
    dist2 += (penalty**2) * (cat[:, None, :] != cat[None, :, :]).sum(axis=2)
    m = len(rows)
    neighbor_lists = []
    for i in range(m):
        order = np.argsort(dist2[i], kind="stable")
        neighbor_lists.append([int(o) for o in order if o != i][:k])

    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_new):
        ri = int(rng.integers(0, m))
        neighbors = neighbor_lists[ri]
        si = neighbors[int(rng.integers(0, len(neighbors)))]
        u = float(rng.random())
        r_row, s_row = rows[ri], rows[si]
        cells = list(r_row)
        for attr, j in zip(feats, cols):
            if attr.kind == NUMERIC:
                cells[j] = float(r_row[j]) + u * (float(s_row[j]) - float(r_row[j]))
            else:
                votes = {}
                for ni in neighbors:
                    code = rows[ni][j]
                    votes[code] = votes.get(code, 0) + 1
                top = max(votes.values())
                winners = [c for c in attr.codes if votes.get(c, 0) == top]
                cells[j] = winners[0] if len(winners) == 1 else r_row[j]
        cells[label_idx] = cls
        out.append(tuple(cells))
    return out


def _typed(rows):
    return [[(type(cell), cell) for cell in row] for row in rows]


def _tied_corpus(schema, n, seed):
    """Rows with every categorical uniform over its codes and heights on a
    coarse grid, so that distances and votes tie often."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        cells = [
            float(rng.integers(170, 174)) if a.kind == NUMERIC else a.codes[int(rng.integers(0, len(a.codes)))]
            for a in schema.attributes
        ]
        rows.append(tuple(cells))
    return Table(schema, tuple(rows))


@pytest.mark.parametrize("corpus", [
    ("synth", 60, 1), ("synth", 150, 2), ("synth", 300, 3), ("synth", 1087, 4),
    ("tied", 40, 5), ("tied", 120, 6), ("tied", 400, 7),
])
def test_smotenc_matches_reference(schema, corpus):
    kind, n, seed = corpus
    table = small_corpus(n, seed=seed) if kind == "synth" else _tied_corpus(schema, n, seed)
    checked = 0
    for cls, count in class_histogram(table).items():
        if count < 2:
            continue
        for n_new in (0, 1, 37):
            new = smotenc_generate(table, cls, n_new, seed=100 + n_new)
            assert _typed(new) == _typed(_reference_smotenc(table, cls, n_new, seed=100 + n_new))
            checked += 1
    assert checked >= 6  # two classes or more


def test_categorical_penalty_falls_back_to_table_past_blank_cells(schema):
    # a class constant in height takes the table-wide std, blank cells left out
    rows = [make_row(schema, height=175.0) for _ in range(3)]
    rows += [make_row(schema, cls="RW", height=h) for h in (170.0, 181.5, None, 176.0)]
    table = Table(schema, tuple(rows))
    num, _ = _feature_arrays(table)
    member = np.array([r[schema.label_index] == "HR" for r in rows])
    assert categorical_penalty(num, member) == _reference_penalty(table, "HR")
    assert categorical_penalty(num, member) == float(np.std([175.0] * 3 + [170.0, 181.5, 176.0]))


def test_categorical_penalty_is_height_std(schema):
    table = small_corpus(400, seed=10)
    i_h = schema.index_of("height")
    i_lab = schema.label_index
    heights = [r[i_h] for r in table.rows if r[i_lab] == "AW"]
    member = np.array([r[i_lab] == "AW" for r in table.rows])
    num, _ = _feature_arrays(table)
    assert categorical_penalty(num, member) == pytest.approx(float(np.std(heights)))


class TestPlan:
    def test_default_plan_totals_1800(self):
        counts = {"RW": 396, "AW": 633, "CS": 8, "CT": 8, "HR": 5, "MR": 10, "LR": 27}
        order = ("RW", "AW", "CS", "CT", "HR", "MR", "LR")
        plan = default_augment_plan(counts, order)
        assert sum(plan.stage2.values()) == 1800
        assert plan.stage2["RW"] == 396 and plan.stage2["AW"] == 633
        minority_targets = sorted(plan.stage2[c] for c in ("CS", "CT", "HR", "MR", "LR"))
        assert minority_targets == [154, 154, 154, 154, 155]
        for cls in order:
            assert plan.stage2[cls] >= plan.stage1[cls] >= counts[cls]

    def test_smote_cap_routes_remainder_to_cgan(self):
        counts = {"RW": 396, "AW": 633, "CS": 8, "CT": 8, "HR": 5, "MR": 10, "LR": 27}
        order = ("RW", "AW", "CS", "CT", "HR", "MR", "LR")
        plan = default_augment_plan(counts, order, total=1800, smote_cap=120)
        assert plan.stage1["CS"] == 120
        assert plan.stage2["CS"] in (154, 155)

    def test_classes_under_two_rows_held_with_one_warning(self):
        counts = {"RW": 396, "AW": 633, "CS": 0, "CT": 8, "HR": 1, "MR": 10, "LR": 27}
        order = ("RW", "AW", "CS", "CT", "HR", "MR", "LR")
        with pytest.warns(UserWarning) as caught:
            plan = default_augment_plan(counts, order, total=1800, smote_cap=130)
        assert [str(w.message) for w in caught] == [
            "classes with fewer than 2 rows held at their count: 'CS', 'HR'"
        ]
        assert sum(plan.stage2.values()) == 1800
        for cls in ("CS", "HR"):
            assert plan.stage1[cls] == plan.stage2[cls] == counts[cls]
        # the other three minorities share what the held classes leave
        assert sorted(plan.stage2[c] for c in ("CT", "MR", "LR")) == [256, 257, 257]
        plan.validate(counts)

    def test_no_warning_without_small_classes(self):
        counts = {"RW": 396, "AW": 633, "CS": 8, "CT": 8, "HR": 2, "MR": 10, "LR": 27}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            default_augment_plan(counts, tuple(counts))

    def test_invalid_plan_rejected(self):
        plan = AugmentPlan(stage1={"HR": 3}, stage2={"HR": 10})
        with pytest.raises(DataError):
            plan.validate({"HR": 5})

    @pytest.mark.parametrize("count, stage1, stage2", [(0, 0, 3), (0, 2, 2), (1, 1, 4), (1, 3, 3)])
    def test_plan_growing_a_class_under_two_rows_rejected(self, count, stage1, stage2):
        plan = AugmentPlan(stage1={"HR": stage1}, stage2={"HR": stage2})
        with pytest.raises(DataError, match=f"^plan grows class 'HR', which has {count} row"):
            plan.validate({"HR": count})

    def test_plan_json_round_trip(self, tmp_path, schema):
        counts = {"RW": 20, "AW": 30, "CS": 3, "CT": 3, "HR": 2, "MR": 3, "LR": 5}
        plan = default_augment_plan(counts, schema.class_codes, total=100, smote_cap=10)
        path = tmp_path / "plan.json"
        doc = {stage: {str(c): t for c, t in targets.items()}
               for stage, targets in (("stage1", plan.stage1), ("stage2", plan.stage2))}
        path.write_text(json.dumps(doc), encoding="utf-8")
        back = load_plan(path, schema)
        assert back == plan

    @pytest.mark.parametrize("stage", ["stage1", "stage2"])
    @pytest.mark.parametrize("target", [150.9, 150.0, "150", True])
    def test_plan_target_not_an_integer_rejected(self, tmp_path, schema, stage, target):
        doc = {"stage1": {"RW": 150}, "stage2": {"RW": 150}}
        doc[stage]["RW"] = target
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{stage} 'RW': expected an integer, got {target!r}")):
            load_plan(path, schema)


class TestCgan:
    def test_config_batch_size_below_1_rejected(self):
        # epochs below 1 are covered through the CLI in tests/test_cli.py
        with pytest.raises(DataError, match="batch_size"):
            CganConfig(batch_size=0)

    def test_sample_zero_rows(self, schema):
        table = small_corpus(600, seed=0)
        enc = encode(table, build_codec(table, tuple(a.name for a in schema.features)))
        model = train_table_cgan(enc, label_indices(table), FAST_CGAN, seed=12, schema=schema)
        assert sample_table_cgan(model, "RW", 0, seed=13) == []

    def test_samples_schema_valid_and_labeled(self, schema):
        table = small_corpus(600, seed=0)
        enc = encode(table, build_codec(table, tuple(a.name for a in schema.features)))
        model = train_table_cgan(enc, label_indices(table), FAST_CGAN, seed=12, schema=schema)
        rows = sample_table_cgan(model, "AW", 40, seed=14)
        assert len(rows) == 40
        Table(schema, tuple(rows))
        assert all(r[schema.label_index] == "AW" for r in rows)

    def test_generator_output_bounded(self, schema):
        from twkit.nn import forward

        table = small_corpus(600, seed=0)
        enc = encode(table, build_codec(table, tuple(a.name for a in schema.features)))
        model = train_table_cgan(enc, label_indices(table), FAST_CGAN, seed=12, schema=schema)
        rng = np.random.default_rng(0)
        z = rng.standard_normal((50, CGAN_NOISE_DIM))
        onehot = np.zeros((50, 7))
        onehot[:, 1] = 1.0
        out, _ = forward(model.generator, np.hstack([z, onehot]))
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_deterministic(self, schema):
        table = small_corpus(600, seed=0)
        enc = encode(table, build_codec(table, tuple(a.name for a in schema.features)))
        m1 = train_table_cgan(enc, label_indices(table), FAST_CGAN, seed=15, schema=schema)
        m2 = train_table_cgan(enc, label_indices(table), FAST_CGAN, seed=15, schema=schema)
        for w1, w2 in zip(m1.generator.weights, m2.generator.weights):
            np.testing.assert_array_equal(w1, w2)
        assert sample_table_cgan(m1, "RW", 5, seed=16) == sample_table_cgan(m2, "RW", 5, seed=16)

    def test_unknown_class_rejected(self, schema):
        table = small_corpus(600, seed=0)
        enc = encode(table, build_codec(table, tuple(a.name for a in schema.features)))
        model = train_table_cgan(enc, label_indices(table), FAST_CGAN, seed=12, schema=schema)
        with pytest.raises(DataError):
            sample_table_cgan(model, "XX", 3, seed=17)

    def test_class_with_one_row_rejected(self, schema):
        rows = tuple(make_row(schema, cls="RW", height=170.0 + i) for i in range(6))
        rows += (make_row(schema, cls="HR"),)
        table = Table(schema, rows)
        enc = encode(table, build_codec(table, tuple(a.name for a in schema.features)))
        with pytest.raises(DataError):
            train_table_cgan(enc, label_indices(table), FAST_CGAN, seed=18, schema=schema)


class TestTwoStage:
    def test_plan_counts_and_origins(self, schema):
        table = small_corpus(300, seed=19)
        counts = class_histogram(table)
        plan = default_augment_plan(counts, schema.class_codes, total=500, smote_cap=40)
        result = two_stage_augment(table, plan, FAST_CGAN, seed=20)
        assert len(result.table) == 500
        hist = class_histogram(result.table)
        for cls in schema.class_codes:
            assert hist[cls] == plan.stage2[cls]
        assert result.origins[: len(table)] == ("real",) * len(table)
        assert result.table.rows[: len(table)] == table.rows
        assert set(result.origins) <= {"real", "smotenc", "cgan"}
        assert "cgan" in result.origins  # cap forces a CGAN stage

    def test_plan_equal_to_counts_is_identity(self, schema):
        table = small_corpus(120, seed=21)
        counts = class_histogram(table)
        plan = AugmentPlan(stage1=dict(counts), stage2=dict(counts))
        result = two_stage_augment(table, plan, seed=22)
        assert result.table.rows == table.rows
        assert set(result.origins) == {"real"}

    def test_deterministic(self, schema):
        table = small_corpus(400, seed=8)
        counts = class_histogram(table)
        plan = default_augment_plan(counts, schema.class_codes, total=400, smote_cap=30)
        r1 = two_stage_augment(table, plan, FAST_CGAN, seed=24)
        r2 = two_stage_augment(table, plan, FAST_CGAN, seed=24)
        assert r1.table.rows == r2.table.rows
        assert r1.origins == r2.origins

    def test_synthetic_rows_schema_valid(self, schema):
        table = small_corpus(400, seed=8)
        counts = class_histogram(table)
        plan = default_augment_plan(counts, schema.class_codes, total=400, smote_cap=30)
        result = two_stage_augment(table, plan, FAST_CGAN, seed=24)
        Table(schema, result.table.rows)
        assert result.table.is_complete()

    @pytest.mark.parametrize("kept", [0, 1])
    def test_class_under_two_rows_held_and_left_out_of_cgan(self, schema, kept):
        table = small_corpus(300, seed=19)
        label_idx = schema.label_index
        hr = [r for r in table.rows if r[label_idx] == "HR"]
        rows = [r for r in table.rows if r[label_idx] != "HR"] + hr[:kept]
        if len(hr) < kept:
            rows.append(make_row(schema))
        table = Table(schema, tuple(rows))
        counts = class_histogram(table)
        assert counts["HR"] == kept
        with pytest.warns(UserWarning, match="held at their count: 'HR'"):
            plan = default_augment_plan(counts, schema.class_codes, total=500, smote_cap=40)
        result = two_stage_augment(table, plan, FAST_CGAN, seed=20)
        assert len(result.table) == 500
        hist = class_histogram(result.table)
        for cls in schema.class_codes:
            assert hist[cls] == plan.stage2[cls]
        assert hist["HR"] == kept
        assert result.table.rows[: len(table)] == table.rows
        assert "cgan" in result.origins

    def test_missing_label_rejected(self, schema):
        table = small_corpus(120, seed=21)
        label_idx = schema.label_index
        rows = list(table.rows)
        rows[0] = rows[0][:label_idx] + (None,) + rows[0][label_idx + 1:]
        with pytest.raises(DataError, match="class label"):
            two_stage_augment(Table(schema, tuple(rows)), seed=22)

    @pytest.mark.parametrize("attribute", ["height", "headgear"])
    def test_missing_feature_rejected(self, schema, attribute):
        # SMOTENC measures distances over every feature, so a blank cell is
        # rejected up front, not met as a TypeError or an undeclared code
        table = small_corpus(120, seed=21)
        i = schema.index_of(attribute)
        rows = list(table.rows)
        rows[0] = rows[0][:i] + (None,) + rows[0][i + 1:]
        with pytest.raises(DataError, match="every feature on every row"):
            two_stage_augment(Table(schema, tuple(rows)), seed=22)
