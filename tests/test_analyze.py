import json

import numpy as np
import pytest

from twkit.analyze import (
    ContingencyTable,
    box_stats,
    chi_square,
    contingency,
    correlation_matrix,
    cramers_v,
    group_by_class,
    kde,
)
from twkit.errors import DataError
from twkit.schema import default_schema
from twkit.table import Table


def make_ct(grid, row_attr="a", col_attr="b"):
    grid = np.asarray(grid, dtype=np.int64)
    return ContingencyTable(
        row_attr, col_attr,
        tuple(range(grid.shape[0])), tuple(range(grid.shape[1])), grid,
    )


def brute_chi_square(grid):
    grid = np.asarray(grid, dtype=float)
    rows = [i for i in range(grid.shape[0]) if grid[i].sum() > 0]
    cols = [j for j in range(grid.shape[1]) if grid[:, j].sum() > 0]
    grid = grid[np.ix_(rows, cols)]
    n = grid.sum()
    total = 0.0
    for i in range(grid.shape[0]):
        for j in range(grid.shape[1]):
            expected = grid[i].sum() * grid[:, j].sum() / n
            total += (grid[i, j] - expected) ** 2 / expected
    return total


class TestContingency:
    def test_self_cross_is_diagonal(self, corpus_200):
        ct = contingency(corpus_200, "headgear", "headgear")
        off = ct.grid.sum() - np.trace(ct.grid)
        assert off == 0

    def test_grid_sum_counts_complete_rows(self, corpus_200):
        ct = contingency(corpus_200, "corps", "position")
        assert ct.grid.sum() == len(corpus_200)

    def test_numeric_rejected(self, corpus_200):
        with pytest.raises(DataError):
            contingency(corpus_200, "height", "corps")

    def test_missing_rows_excluded(self, schema):
        rows = [
            (1, 1, 1, 1, 178.0, 0, 0, 3, 1, 1, "RW"),
            (1, 1, 1, 1, 178.0, 0, None, 3, 1, 1, "RW"),
            (1, 1, 0, 2, 178.0, 0, 1, 3, 1, 1, "AW"),
        ]
        table = Table(schema, tuple(rows))
        ct = contingency(table, "hairstyle", "corps")
        assert ct.grid.sum() == 2


def _reference_contingency(table, attr_a, attr_b):
    """The per-code scan contingency replaced, kept as its oracle."""
    a, b = table.schema.attribute(attr_a), table.schema.attribute(attr_b)
    ia, ib = table.schema.index_of(attr_a), table.schema.index_of(attr_b)
    pairs = [(row[ia], row[ib]) for row in table.rows if row[ia] is not None and row[ib] is not None]
    row_codes = tuple(c for c in a.codes if any(p[0] == c for p in pairs))
    col_codes = tuple(c for c in b.codes if any(p[1] == c for p in pairs))
    ri = {c: i for i, c in enumerate(row_codes)}
    ci = {c: i for i, c in enumerate(col_codes)}
    grid = np.zeros((len(row_codes), len(col_codes)), dtype=np.int64)
    for pa, pb in pairs:
        grid[ri[pa], ci[pb]] += 1
    return ContingencyTable(attr_a, attr_b, row_codes, col_codes, grid)


class TestContingencyOracle:
    def test_matches_scan_on_every_pair(self, corpus_200):
        from twkit.table import inject_missing

        table, _ = inject_missing(corpus_200, ["headgear", "weapon", "c_id"], 0.3, seed=3)
        # equal-but-not-identical cells count under their declared code
        i_corps = table.schema.index_of("corps")
        rows = [r[:i_corps] + (float(r[i_corps]),) + r[i_corps + 1:] if k % 3 == 0 else r
                for k, r in enumerate(table.rows)]
        table = table.replace_rows(rows)
        names = [a.name for a in table.schema.attributes if a.kind == "categorical"]
        for x in names:
            for y in names:
                got, want = contingency(table, x, y), _reference_contingency(table, x, y)
                assert got.row_codes == want.row_codes and got.col_codes == want.col_codes
                assert [type(c) for c in got.row_codes] == [type(c) for c in want.row_codes]
                assert got.grid.dtype == want.grid.dtype
                assert np.array_equal(got.grid, want.grid), (x, y)


class TestChiSquare:
    def test_independent_uniform_is_zero(self):
        assert chi_square(make_ct([[25, 25], [25, 25]])) == 0.0

    def test_perfect_association(self):
        assert chi_square(make_ct([[30, 0], [0, 30]])) == pytest.approx(60.0)

    def test_hand_computed(self):
        assert chi_square(make_ct([[10, 20], [20, 10]])) == pytest.approx(20.0 / 3.0)

    def test_degenerate_one_row(self):
        with pytest.warns(UserWarning, match="degenerate"):
            assert chi_square(make_ct([[5, 5]])) == 0.0

    def test_zero_marginals_dropped(self):
        with pytest.warns(UserWarning, match="zero-marginal"):
            value = chi_square(make_ct([[30, 0, 0], [0, 30, 0]]))
        assert value == pytest.approx(60.0)

    def test_matches_brute_force_on_random_tables(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            r = int(rng.integers(2, 7))
            c = int(rng.integers(2, 7))
            grid = rng.integers(0, 30, size=(r, c))
            if grid.sum() == 0:
                continue
            trimmed = grid[grid.sum(axis=1) > 0][:, grid.sum(axis=0) > 0]
            if trimmed.shape[0] < 2 or trimmed.shape[1] < 2:
                continue
            import warnings
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert chi_square(make_ct(grid)) == pytest.approx(brute_chi_square(grid), abs=1e-9)


class TestCramersV:
    def test_perfect_association_is_one(self):
        assert cramers_v(make_ct([[30, 0], [0, 30]])) == pytest.approx(1.0)

    def test_independent_is_zero(self):
        assert cramers_v(make_ct([[25, 25], [25, 25]])) == 0.0

    def test_range_and_symmetry(self, corpus_200):
        attrs = ["corps", "position", "headgear", "hairstyle"]
        for i, a in enumerate(attrs):
            for b in attrs[i + 1:]:
                v_ab = cramers_v(contingency(corpus_200, a, b))
                v_ba = cramers_v(contingency(corpus_200, b, a))
                assert 0.0 <= v_ab <= 1.0
                assert v_ab == pytest.approx(v_ba)

    def test_code_permutation_invariant(self):
        rng = np.random.default_rng(1)
        grid = rng.integers(1, 20, size=(3, 4))
        v = cramers_v(make_ct(grid))
        assert cramers_v(make_ct(grid[::-1])) == pytest.approx(v)
        assert cramers_v(make_ct(grid[:, ::-1])) == pytest.approx(v)

    def test_zero_marginals_warned_once(self):
        grid = [[3, 1], [0, 0], [1, 4]]
        with pytest.warns(UserWarning) as caught:
            value = cramers_v(make_ct(grid))
        assert [str(w.message) for w in caught] == ["dropping zero-marginal rows/columns from contingency grid"]
        assert value == pytest.approx(np.sqrt(brute_chi_square(grid) / 9))
        assert round(value, 2) == 0.55

    def test_synthetic_coupling_targets(self, corpus_1087):
        assert cramers_v(contingency(corpus_1087, "corps", "position")) >= 0.9
        assert cramers_v(contingency(corpus_1087, "headgear", "hairstyle")) >= 0.8


class TestCorrelationMatrix:
    def test_symmetric_unit_diagonal(self, corpus_200):
        m = correlation_matrix(corpus_200)
        np.testing.assert_array_equal(m.values, m.values.T)
        assert (np.diag(m.values) == 1.0).all()
        assert "height" not in m.attributes
        assert len(m.attributes) == 9

    def test_duplicated_attribute_full_association(self, corpus_200):
        m = correlation_matrix(corpus_200, ["corps", "corps"])
        assert m.values[0, 1] == pytest.approx(1.0)

    def test_independent_columns_low(self):
        schema = default_schema()
        rng = np.random.default_rng(3)
        rows = []
        for _ in range(5000):
            rows.append((
                int(rng.integers(1, 12)), 1, int(rng.integers(0, 2)), 1, 178.0,
                0, int(rng.integers(0, 2)), 3, 1, 1, "RW",
            ))
        table = Table(schema, tuple(rows))
        assert cramers_v(contingency(table, "c_id", "hairstyle")) < 0.1
        assert cramers_v(contingency(table, "corps", "hairstyle")) < 0.1


class TestBoxStats:
    def test_five_values(self):
        s = box_stats([1, 2, 3, 4, 5])
        assert (s.q1, s.median, s.q3) == (2.0, 3.0, 4.0)
        assert (s.whisker_low, s.whisker_high) == (1.0, 5.0)
        assert s.outliers == ()

    def test_outlier_beyond_fence(self):
        s = box_stats([1, 2, 3, 4, 100])
        assert 100.0 in s.outliers
        assert s.whisker_high == 4.0

    def test_single_value(self):
        s = box_stats([7.5])
        assert s.q1 == s.median == s.q3 == s.whisker_low == s.whisker_high == 7.5
        assert s.outliers == ()

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            box_stats([])

    def test_ordering_and_fences_random(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            values = rng.normal(size=int(rng.integers(1, 40)))
            s = box_stats(values)
            assert s.whisker_low <= s.q1 <= s.median <= s.q3 <= s.whisker_high
            iqr = s.q3 - s.q1
            for v in s.outliers:
                assert v < s.q1 - 1.5 * iqr or v > s.q3 + 1.5 * iqr


def test_stats_from_dict_inverts_to_dict():
    # the round trip goes through JSON, as `plot` reads what `stats` writes
    for stats in (box_stats([1, 2, 3, 4, 100]), kde([1.0, 2.0, 3.5])):
        doc = json.loads(json.dumps(stats.to_dict()))
        assert type(stats).from_dict(doc) == stats


class TestKde:
    def test_integral_one(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=80)
        s = kde(values)
        integral = np.trapezoid(np.array(s.density), np.array(s.grid))
        assert integral == pytest.approx(1.0, abs=1e-3)

    def test_symmetry(self):
        values = np.array([1.0, 2.0, 3.5])
        s = kde(np.concatenate([values, -values]))
        dens = np.array(s.density)
        np.testing.assert_allclose(dens, dens[::-1], atol=1e-9)

    def test_point_mass_closed_form(self):
        s = kde([0.0], bandwidth=1.0, grid_size=501)
        mid = np.argmin(np.abs(np.array(s.grid)))
        assert s.grid[mid] == pytest.approx(0.0, abs=1e-9)
        assert s.density[mid] == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=2e-3)

    def test_density_nonnegative(self):
        rng = np.random.default_rng(6)
        s = kde(rng.normal(size=30))
        assert min(s.density) >= 0.0

    def test_degenerate_spike(self):
        s = kde([3.0, 3.0, 3.0])
        integral = np.trapezoid(np.array(s.density), np.array(s.grid))
        assert integral == pytest.approx(1.0, abs=1e-3)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            kde([])


class TestGroupByClass:
    def test_seven_keys(self, corpus_1087):
        groups = group_by_class(corpus_1087, "height")
        assert set(groups) == set(corpus_1087.schema.class_codes)

    def test_partition_preserves_multiset(self, corpus_200, schema):
        groups = group_by_class(corpus_200, "height")
        pooled = sorted(v for values in groups.values() for v in values)
        original = sorted(
            row[schema.index_of("height")] for row in corpus_200.rows
        )
        assert pooled == original

    def test_pooled_height_mean(self, corpus_1087):
        groups = group_by_class(corpus_1087, "height")
        pooled = [v for values in groups.values() for v in values]
        assert abs(np.mean(pooled) - 178.0) <= 2.0

    def test_categorical_codes_plot_values(self, corpus_200, schema):
        groups = group_by_class(corpus_200, "c_id")
        spec = schema.attribute("c_id")
        k_index = float(spec.code_index("K"))
        values = {v for vals in groups.values() for v in vals}
        assert values <= set(float(c) for c in range(1, 12)) | {k_index}
