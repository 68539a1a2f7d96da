import json
import re
import warnings

import numpy as np
import pytest

from twkit import default_synthesis_spec, synthesize_corpus
from twkit.augment import (
    CGAN_NOISE_DIM,
    AugmentPlan,
    CganConfig,
    _squared_distances,
    categorical_penalty,
    default_augment_plan,
    load_plan,
    sample_table_cgan,
    smotenc_generate,
    train_table_cgan,
    two_stage_augment,
)
from twkit.encoding import encode, label_indices
from twkit.errors import DataError
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


class TestDistance:
    def test_identical_rows_zero(self, schema):
        row = make_row(schema)
        assert _squared_distances([row, row], schema, penalty=3.0)[0, 1] == 0.0

    def test_single_categorical_mismatch(self, schema):
        a = make_row(schema)
        b = make_row(schema, headgear=0)
        assert _squared_distances([a, b], schema, penalty=3.0)[0, 1] == 9.0

    def test_three_four_five(self, schema):
        a = make_row(schema, height=178.0)
        b = make_row(schema, height=182.0, headgear=0)
        assert _squared_distances([a, b], schema, penalty=3.0)[0, 1] == 25.0

    def test_label_excluded(self, schema):
        a = make_row(schema, cls="HR")
        b = make_row(schema, cls="MR")
        assert _squared_distances([a, b], schema, penalty=3.0)[0, 1] == 0.0

    def test_symmetric_with_zero_diagonal(self, schema):
        rows = small_corpus(40, seed=3).rows
        dist2 = _squared_distances(list(rows), schema, penalty=2.5)
        assert dist2.shape == (len(rows), len(rows))
        assert (dist2 == dist2.T).all()
        assert (np.diag(dist2) == 0.0).all()


class TestGenerate:
    def test_interpolation_bounds(self, schema):
        rows = (make_row(schema, height=170.0), make_row(schema, height=180.0))
        table = Table(schema, rows)
        out = smotenc_generate(table, "HR", 30, k=1, seed=0)
        i_h = schema.index_of("height")
        for row in out:
            assert 170.0 <= row[i_h] <= 180.0

    def test_unanimous_vote(self, schema):
        rows = tuple(make_row(schema, height=170.0 + i, headgear=3) for i in range(5))
        table = Table(schema, rows)
        out = smotenc_generate(table, "HR", 10, k=4, seed=1)
        i_hg = schema.index_of("headgear")
        assert all(row[i_hg] == 3 for row in out)

    def test_hr_sized_class(self, schema):
        rng = np.random.default_rng(2)
        rows = tuple(
            make_row(schema, height=float(rng.uniform(172, 186)), c_id=int(rng.integers(1, 12)))
            for _ in range(5)
        )
        table = Table(schema, rows)
        out = smotenc_generate(table, "HR", 45, k=4, seed=3)
        assert len(out) == 45
        heights = [r[schema.index_of("height")] for r in table.rows]
        for row in out:
            assert row[schema.label_index] == "HR"
            assert min(heights) <= row[schema.index_of("height")] <= max(heights)
        Table(schema, out)  # schema-valid

    def test_k_clamped_with_warning(self, schema):
        rows = tuple(make_row(schema, height=170.0 + i) for i in range(3))
        table = Table(schema, rows)
        with pytest.warns(UserWarning, match="lowered"):
            out = smotenc_generate(table, "HR", 5, k=10, seed=4)
        assert len(out) == 5

    def test_tiny_class_rejected(self, schema):
        table = Table(schema, (make_row(schema),))
        with pytest.raises(DataError):
            smotenc_generate(table, "HR", 5, k=1, seed=5)

    def test_deterministic(self, schema):
        table = small_corpus(200, seed=6)
        a = smotenc_generate(table, "RW", 20, k=5, seed=7)
        b = smotenc_generate(table, "RW", 20, k=5, seed=7)
        assert a == b

    def test_numeric_on_parent_segment(self, schema):
        # single numeric feature: every synthetic height must sit between the
        # two parents, which the class min/max bound from outside
        table = small_corpus(300, seed=8)
        out = smotenc_generate(table, "AW", 50, k=5, seed=9)
        i_h = schema.index_of("height")
        i_lab = schema.label_index
        heights = [r[i_h] for r in table.rows if r[i_lab] == "AW"]
        for row in out:
            assert min(heights) - 1e-9 <= row[i_h] <= max(heights) + 1e-9


def test_categorical_penalty_is_height_std(schema):
    table = small_corpus(400, seed=10)
    i_h = schema.index_of("height")
    i_lab = schema.label_index
    heights = [r[i_h] for r in table.rows if r[i_lab] == "AW"]
    assert categorical_penalty(table, "AW") == pytest.approx(float(np.std(heights)))


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

    def test_plan_json_round_trip(self, tmp_path, schema):
        counts = {"RW": 20, "AW": 30, "CS": 3, "CT": 3, "HR": 2, "MR": 3, "LR": 5}
        plan = default_augment_plan(counts, schema.class_codes, total=100, smote_cap=10)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()), encoding="utf-8")
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
        enc = encode(table, attributes=tuple(a.name for a in schema.features))
        model = train_table_cgan(enc, label_indices(table), FAST_CGAN, seed=12, schema=schema)
        assert sample_table_cgan(model, "RW", 0, seed=13) == []

    def test_samples_schema_valid_and_labeled(self, schema):
        table = small_corpus(600, seed=0)
        enc = encode(table, attributes=tuple(a.name for a in schema.features))
        model = train_table_cgan(enc, label_indices(table), FAST_CGAN, seed=12, schema=schema)
        rows = sample_table_cgan(model, "AW", 40, seed=14)
        assert len(rows) == 40
        Table(schema, tuple(rows))
        assert all(r[schema.label_index] == "AW" for r in rows)

    def test_generator_output_bounded(self, schema):
        from twkit.nn import forward

        table = small_corpus(600, seed=0)
        enc = encode(table, attributes=tuple(a.name for a in schema.features))
        model = train_table_cgan(enc, label_indices(table), FAST_CGAN, seed=12, schema=schema)
        rng = np.random.default_rng(0)
        z = rng.standard_normal((50, CGAN_NOISE_DIM))
        onehot = np.zeros((50, 7))
        onehot[:, 1] = 1.0
        out, _ = forward(model.generator, np.hstack([z, onehot]))
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_deterministic(self, schema):
        table = small_corpus(600, seed=0)
        enc = encode(table, attributes=tuple(a.name for a in schema.features))
        m1 = train_table_cgan(enc, label_indices(table), FAST_CGAN, seed=15, schema=schema)
        m2 = train_table_cgan(enc, label_indices(table), FAST_CGAN, seed=15, schema=schema)
        for w1, w2 in zip(m1.generator.weights, m2.generator.weights):
            np.testing.assert_array_equal(w1, w2)
        assert sample_table_cgan(m1, "RW", 5, seed=16) == sample_table_cgan(m2, "RW", 5, seed=16)

    def test_unknown_class_rejected(self, schema):
        table = small_corpus(600, seed=0)
        enc = encode(table, attributes=tuple(a.name for a in schema.features))
        model = train_table_cgan(enc, label_indices(table), FAST_CGAN, seed=12, schema=schema)
        with pytest.raises(DataError):
            sample_table_cgan(model, "XX", 3, seed=17)

    def test_class_with_one_row_rejected(self, schema):
        rows = tuple(make_row(schema, cls="RW", height=170.0 + i) for i in range(6))
        rows += (make_row(schema, cls="HR"),)
        table = Table(schema, rows)
        enc = encode(table, attributes=tuple(a.name for a in schema.features))
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
