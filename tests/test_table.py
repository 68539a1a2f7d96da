import csv
import re

import numpy as np
import pytest

from twkit.errors import DataError
from twkit.schema import CATEGORICAL, AttributeSpec, Schema, default_schema
from twkit.table import (
    Table,
    class_histogram,
    inject_missing,
    load_augmented_csv,
    round_half_up,
    save_csv,
    split_stratified,
)

HEADER = "c_id,t_id,corps,position,height,weapon,hairstyle,headgear,robe_num,armor_type,tw_class"


def write_csv(tmp_path, lines, name="t.csv"):
    path = tmp_path / name
    path.write_text("\n".join([HEADER] + lines) + "\n", encoding="utf-8")
    return path


def test_load_simple_row(tmp_path, schema):
    path = write_csv(tmp_path, ["1,1,1,1,178.0,0,0,3,1,1,RW"])
    table, _ = load_augmented_csv(path, schema)
    row = table.rows[0]
    assert row[schema.index_of("height")] == 178.0
    assert row[schema.label_index] == "RW"
    assert row[schema.index_of("c_id")] == 1


def test_missing_tokens(tmp_path, schema):
    path = write_csv(tmp_path, ["1,1,1,1,178.0,0,,3,1,1,RW", "K,2,0,2,170.0,3,1,NA,1,6,CS"])
    table, _ = load_augmented_csv(path, schema)
    hair = schema.index_of("hairstyle")
    head = schema.index_of("headgear")
    assert table.rows[0][hair] is None
    assert table.rows[1][head] is None
    assert table.rows[0][head] == 3


def test_undeclared_code_names_row_and_column(tmp_path, schema):
    path = write_csv(tmp_path, ["1,1,1,1,178.0,0,0,9,1,1,RW"])
    with pytest.raises(DataError, match="headgear"):
        load_augmented_csv(path, schema)
    with pytest.raises(DataError, match="9"):
        load_augmented_csv(path, schema)


def test_unknown_column_rejected(tmp_path, schema):
    path = tmp_path / "bad.csv"
    path.write_text(HEADER + ",extra\n" + "1,1,1,1,178.0,0,0,3,1,1,RW,x\n", encoding="utf-8")
    with pytest.raises(DataError, match="extra"):
        load_augmented_csv(path, schema)


def test_non_numeric_height(tmp_path, schema):
    path = write_csv(tmp_path, ["1,1,1,1,tall,0,0,3,1,1,RW"])
    with pytest.raises(DataError, match="height"):
        load_augmented_csv(path, schema)


def test_header_order_insensitive(tmp_path, schema):
    cols = HEADER.split(",")
    reordered = list(reversed(cols))
    row = dict(zip(cols, "1,1,1,1,178.0,0,0,3,1,1,RW".split(",")))
    path = tmp_path / "r.csv"
    path.write_text(
        ",".join(reordered) + "\n" + ",".join(row[c] for c in reordered) + "\n", encoding="utf-8"
    )
    table, _ = load_augmented_csv(path, schema)
    assert table.rows[0][schema.index_of("height")] == 178.0


def test_save_load_round_trip(tmp_path, corpus_200, schema):
    path = tmp_path / "out.csv"
    save_csv(corpus_200, path)
    back, _ = load_augmented_csv(path, schema)
    assert back.rows == corpus_200.rows


def test_save_load_round_trip_numpy_height(tmp_path, corpus_200, schema):
    h = schema.index_of("height")
    row = corpus_200.rows[0]
    table = corpus_200.replace_rows([row[:h] + (np.float64(178.5),) + row[h + 1:]])
    path = tmp_path / "out.csv"
    save_csv(table, path)
    back, _ = load_augmented_csv(path, schema)
    assert back.rows[0][h] == 178.5 and type(back.rows[0][h]) is float
    assert back.rows == table.rows


def test_save_load_with_origins(tmp_path, corpus_200, schema):
    origins = ["real"] * len(corpus_200)
    path = tmp_path / "out.csv"
    save_csv(corpus_200, path, origins=origins)
    back, got = load_augmented_csv(path, schema)
    assert got == origins
    assert back.rows == corpus_200.rows


@pytest.mark.parametrize("origin", ["smote", "REAL", "NA", ""])
def test_load_rejects_unknown_origin(tmp_path, corpus_200, schema, origin):
    origins = ["real", "smotenc", "cgan"] * (len(corpus_200) // 3) + ["real"] * (len(corpus_200) % 3)
    origins[9] = origin
    path = tmp_path / "out.csv"
    save_csv(corpus_200, path, origins=origins)
    with pytest.raises(DataError, match=re.escape(f"{path}: row 10: unknown origin {origin!r}")):
        load_augmented_csv(path, schema)


def test_round_half_up():
    assert round_half_up(1.5) == 2
    assert round_half_up(0.5) == 1
    assert round_half_up(2.4) == 2
    assert round_half_up(3.0) == 3


class TestInjectMissing:
    def test_exact_counts_520(self, schema):
        from twkit import default_synthesis_spec, synthesize_corpus

        table = synthesize_corpus(default_synthesis_spec(), 520, seed=3)
        features = ["hairstyle", "headgear", "weapon", "height"]
        injected, observed = inject_missing(table, features, 0.30, seed=9)
        assert observed.dtype == np.int8 and observed.shape == (520, len(schema.attributes))
        for name in features:
            idx = schema.index_of(name)
            missing = sum(1 for row in injected.rows if row[idx] is None)
            assert missing == 156
            assert observed[:, idx].sum() == 520 - 156
            assert [row[idx] is not None for row in injected.rows] == observed[:, idx].astype(bool).tolist()
        # untouched features stay complete
        for name in ("c_id", "corps", "armor_type", "tw_class"):
            idx = schema.index_of(name)
            assert all(row[idx] is not None for row in injected.rows)

    def test_deterministic(self, corpus_200):
        a, observed_a = inject_missing(corpus_200, ["headgear"], 0.3, seed=5)
        b, observed_b = inject_missing(corpus_200, ["headgear"], 0.3, seed=5)
        assert a.rows == b.rows
        assert np.array_equal(observed_a, observed_b)

    def test_small_table_rounding(self, corpus_200, schema):
        small = corpus_200.replace_rows(corpus_200.rows[:10])
        injected, _ = inject_missing(small, ["height"], 0.3, seed=1)
        idx = schema.index_of("height")
        assert sum(1 for row in injected.rows if row[idx] is None) == 3

    def test_rate_bounds(self, corpus_200):
        for rate in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DataError):
                inject_missing(corpus_200, ["height"], rate, seed=1)

    def test_already_missing_rejected(self, corpus_200):
        injected, _ = inject_missing(corpus_200, ["height"], 0.3, seed=1)
        with pytest.raises(DataError, match="height"):
            inject_missing(injected, ["height"], 0.3, seed=2)


class TestSplitStratified:
    def test_balanced_proportions(self, schema):
        rows = []
        for i in range(100):
            cls = "RW" if i < 50 else "AW"
            rows.append((1, 1, 1, 1, 178.0, 0, 0, 3, 1, 1, cls))
        table = Table(schema, tuple(rows))
        train, test = split_stratified(table, 0.2, seed=0)
        hist = class_histogram(test)
        assert hist["RW"] == 10 and hist["AW"] == 10
        assert len(train) == 80

    def test_singleton_goes_to_train(self, schema):
        rows = [(1, 1, 1, 1, 178.0, 0, 0, 3, 1, 1, "RW") for _ in range(20)]
        rows.append((1, 1, 1, 1, 190.0, 0, 0, 3, 1, 1, "HR"))
        table = Table(schema, tuple(rows))
        train, test = split_stratified(table, 0.2, seed=0)
        assert class_histogram(train)["HR"] == 1
        assert class_histogram(test)["HR"] == 0

    def test_fraction_that_leaves_no_test_row_rejected(self, schema):
        rows = [(1, 1, 1, 1, 178.0, 0, 0, 3, 1, 1, "RW") for _ in range(20)]
        with pytest.raises(DataError, match=r"^test_fraction 0\.01 leaves no test rows"):
            split_stratified(Table(schema, tuple(rows)), 0.01, seed=0)

    def test_deterministic(self, corpus_200):
        a1, b1 = split_stratified(corpus_200, 0.2, seed=11)
        a2, b2 = split_stratified(corpus_200, 0.2, seed=11)
        assert a1.rows == a2.rows and b1.rows == b2.rows

    def test_per_class_proportion_within_one_row(self, corpus_1087):
        train, test = split_stratified(corpus_1087, 0.2, seed=3)
        full = class_histogram(corpus_1087)
        te = class_histogram(test)
        for cls, n in full.items():
            if n <= 1:
                continue
            assert abs(te[cls] - 0.2 * n) <= 1.0


def test_class_histogram_counts(schema, corpus_1087):
    hist = class_histogram(corpus_1087)
    assert sum(hist.values()) == 1087
    assert set(hist) == set(schema.class_codes)


def test_class_histogram_empty(schema):
    table = Table(schema, ())
    assert all(v == 0 for v in class_histogram(table).values())


class TestKfold:
    def test_partition_covers_table(self, corpus_200):
        from twkit.table import kfold_stratified

        folds = kfold_stratified(corpus_200, 5, seed=3)
        assert len(folds) == 5
        all_test_rows = [r for _, test in folds for r in test.rows]
        assert sorted(map(repr, all_test_rows)) == sorted(map(repr, corpus_200.rows))
        for train, test in folds:
            assert len(train) + len(test) == len(corpus_200)

    def test_deterministic(self, corpus_200):
        from twkit.table import kfold_stratified

        a = kfold_stratified(corpus_200, 4, seed=9)
        b = kfold_stratified(corpus_200, 4, seed=9)
        assert [t.rows for t, _ in a] == [t.rows for t, _ in b]

    def test_k_validated(self, corpus_200):
        from twkit.table import kfold_stratified

        with pytest.raises(DataError):
            kfold_stratified(corpus_200, 1, seed=0)


ODD_CELLS = (1, 1.0, True, False, "1", "K", "k", 1.5, np.int64(1), 0j + 1, None, [1], {"K"}, (1,))


def _table_accepts(schema, row) -> bool:
    try:
        Table(schema, (row,))
        return True
    except DataError:
        return False


def _reference_accepts(schema, row) -> bool:
    """The scan Table validation replaced: `cell in attr.codes` per categorical cell."""
    for attr, cell in zip(schema.attributes, row):
        if cell is not None and attr.kind == CATEGORICAL and cell not in attr.codes:
            return False
    return True


@pytest.mark.parametrize("attr_name", ["corps", "c_id", "tw_class"])
def test_table_accepts_what_the_scan_accepted(schema, attr_name):
    base = (1, 1, 1, 1, 178.0, 0, 0, 3, 1, 1, "RW")
    j = schema.index_of(attr_name)
    for cell in ODD_CELLS:
        row = base[:j] + (cell,) + base[j + 1:]
        assert _table_accepts(schema, row) == _reference_accepts(schema, row), cell


def test_table_rejects_unhashable_cell(schema):
    row = (1, 1, 1, 1, 178.0, 0, 0, [3], 1, 1, "RW")
    with pytest.raises(DataError, match=re.escape("row 0, attribute 'headgear': undeclared code [3]")):
        Table(schema, (row,))


def test_table_accepts_mixed_int_and_str_codes():
    mixed = AttributeSpec(name="m", kind=CATEGORICAL, categories=((1, "int one"), ("1", "str one")))
    label = AttributeSpec(name="y", kind=CATEGORICAL, categories=(("a", "A"), ("b", "B")), role="label")
    schema = Schema(attributes=(mixed, label))
    for cell in (1, "1", 1.0, True, "2", 2, "a"):
        assert _table_accepts(schema, (cell, "a")) == _reference_accepts(schema, (cell, "a")), cell


BASE_ROW = (1, 1, 1, 1, 178.0, 0, 0, 3, 1, 1, "RW")


def _with(row, **cells):
    """`row` with the named cells replaced."""
    return tuple(cells.get(name, cell) for name, cell in zip(default_schema().names, row))


@pytest.mark.parametrize("rows, message", [
    # the bad cell of the earlier row is named, though its column comes later
    ([_with(BASE_ROW, armor_type=9), _with(BASE_ROW, c_id=99)], "row 0, attribute 'armor_type': undeclared code 9"),
    ([BASE_ROW, _with(BASE_ROW, corps=5, height="tall")], "row 1, attribute 'corps': undeclared code 5"),
    ([BASE_ROW, _with(BASE_ROW, height="tall", weapon=7)], "row 1, attribute 'height': expected numeric, got 'tall'"),
    ([BASE_ROW, BASE_ROW[:-1], _with(BASE_ROW, c_id=99)], "row 1: expected 11 cells, got 10"),
    ([_with(BASE_ROW, c_id=99), BASE_ROW + (1,)], "row 0, attribute 'c_id': undeclared code 99"),
    ([BASE_ROW, _with(BASE_ROW, height=[178.0])], "row 1, attribute 'height': expected numeric, got [178.0]"),
    ([BASE_ROW, _with(BASE_ROW, weapon=7), _with(BASE_ROW, weapon={0})],
     "row 1, attribute 'weapon': undeclared code 7"),
    ([BASE_ROW, _with(BASE_ROW, weapon={0}), _with(BASE_ROW, weapon=7)],
     "row 1, attribute 'weapon': undeclared code {0}"),
])
def test_table_names_first_bad_cell(schema, rows, message):
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        Table(schema, tuple(rows))


def test_table_numeric_cells_are_int_or_float_not_bool(schema):
    for height in (1, 1.0, np.float64(178.5), None):
        Table(schema, (BASE_ROW, _with(BASE_ROW, height=height)))
    for height in (True, False, np.int64(178), "178", 1j):
        with pytest.raises(DataError, match=re.escape(f"row 1, attribute 'height': expected numeric, got {height!r}")):
            Table(schema, (BASE_ROW, _with(BASE_ROW, height=height)))


def test_table_accepts_cells_equal_to_a_code(schema):
    rows = (_with(BASE_ROW, corps=1.0), _with(BASE_ROW, corps=True), _with(BASE_ROW, corps=1))
    table = Table(schema, rows)
    assert [type(c) for c in table.column("corps")] == [float, bool, int]


def _save_csv_reference(table, path, origins=None):
    """The writer save_csv replaced: one format call per cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(table.schema.names) + (["origin"] if origins is not None else []))
        for i, row in enumerate(table.rows):
            out = ["" if c is None else repr(c) if isinstance(c, float) else str(c) for c in row]
            writer.writerow(out + ([origins[i]] if origins is not None else []))


def test_save_csv_matches_per_cell_writer(tmp_path, schema, corpus_200):
    # codes equal to 1 in five types, and heights that are equal but print apart
    codes = (1, 1.0, True, np.int64(1), 1 + 0j, None)
    heights = (0.0, -0.0, 178, 178.0, None)
    rows = [_with(BASE_ROW, corps=c, c_id=c, height=h) for c in codes for h in heights]
    injected, _ = inject_missing(corpus_200, ["headgear", "height"], 0.3, seed=3)
    for table in (Table(schema, tuple(rows)), injected, injected.replace_rows([])):
        for origins in (None, ["real", "cgan"] * (len(table) // 2) + ["smotenc"] * (len(table) % 2)):
            save_csv(table, tmp_path / "new.csv", origins=origins)
            _save_csv_reference(table, tmp_path / "old.csv", origins=origins)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _blanked(table, cells):
    rows = [list(row) for row in table.rows]
    for i, j in cells:
        rows[i][j] = None
    return table.replace_rows(rows)


def _typed(table):
    return [[(type(cell), repr(cell)) for cell in row] for row in table.rows]


class TestMissingRowsAndFill:
    def test_missing_rows_in_attribute_and_row_order(self, corpus_200):
        schema = corpus_200.schema
        height, headgear = schema.index_of("height"), schema.index_of("headgear")
        table = _blanked(corpus_200, [(5, height), (3, headgear), (1, height)])
        assert list(table.missing_rows().items()) == sorted([(height, [1, 5]), (headgear, [3])])
        assert corpus_200.missing_rows() == {}

    def test_fill_in_row_order_and_observed_cells_untouched(self, corpus_200):
        schema = corpus_200.schema
        height, headgear = schema.index_of("height"), schema.index_of("headgear")
        code = schema.attribute("headgear").codes[0]
        table = _blanked(corpus_200, [(5, height), (3, headgear), (1, height)])
        filled = table.fill({height: [170.0, 180.0], headgear: [code]})
        expected = [list(row) for row in corpus_200.rows]
        expected[1][height], expected[5][height], expected[3][headgear] = 170.0, 180.0, code
        assert _typed(filled) == _typed(corpus_200.replace_rows(expected))
        assert filled.missing_rows() == {}
        assert table.missing_rows() == {height: [1, 5], headgear: [3]}  # the source is unchanged

    def test_fill_leaves_columns_it_is_not_given(self, corpus_200):
        height = corpus_200.schema.index_of("height")
        table = _blanked(corpus_200, [(2, 0), (4, height)])
        assert table.fill({height: [171.5]}).missing_rows() == {0: [2]}

    def test_zero_rows(self, corpus_200):
        height = corpus_200.schema.index_of("height")
        empty = corpus_200.replace_rows([])
        assert empty.missing_rows() == {}
        assert len(empty.fill({})) == len(empty.fill({height: []})) == 0
        with pytest.raises(ValueError):
            empty.fill({height: [170.0]})

    @pytest.mark.parametrize("values", [[], [170.0], [170.0, 180.0, 190.0]])
    def test_fill_length_mismatch_raises(self, corpus_200, values):
        height = corpus_200.schema.index_of("height")
        table = _blanked(corpus_200, [(5, height), (1, height)])
        with pytest.raises(ValueError):
            table.fill({height: values})
