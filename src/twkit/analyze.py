"""Categorical association and distribution statistics.

Cramér's V is the plain (uncorrected) statistic. Rows missing either variable
of a pair are dropped for that pair only. Quartiles use linear interpolation
on the sorted order statistics: q(p) = x[i] + frac * (x[i+1] - x[i]) with
i, frac = divmod(p*(n-1), 1).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import DataError
from .schema import CATEGORICAL, Code
from .table import Table


@dataclass(frozen=True)
class ContingencyTable:
    row_attr: str
    col_attr: str
    row_codes: tuple[Code, ...]
    col_codes: tuple[Code, ...]
    grid: np.ndarray  # (r, c) counts


def contingency(table: Table, attr_a: str, attr_b: str) -> ContingencyTable:
    """Cross-tabulate two categorical attributes over rows complete in both."""
    a = table.schema.attribute(attr_a)
    b = table.schema.attribute(attr_b)
    if a.kind != CATEGORICAL or b.kind != CATEGORICAL:
        raise DataError("contingency requires categorical attributes (bin numerics first)")
    a_codes, b_codes = a.codes, b.codes
    ka, kb = a.code_indices(table.column(attr_a)), b.code_indices(table.column(attr_b))
    # one cell per complete row: its code index pair flattened to one integer
    complete = (ka >= 0) & (kb >= 0)
    if not complete.any():
        raise DataError(f"no rows complete in both {attr_a!r} and {attr_b!r}")
    cells = ka[complete] * len(b_codes) + kb[complete]
    full = np.bincount(cells, minlength=len(a_codes) * len(b_codes)).reshape(len(a_codes), -1)
    rows, cols = full.any(axis=1), full.any(axis=0)
    row_codes = tuple(c for c, seen in zip(a_codes, rows) if seen)
    col_codes = tuple(c for c, seen in zip(b_codes, cols) if seen)
    grid = full[rows][:, cols]
    return ContingencyTable(attr_a, attr_b, row_codes, col_codes, grid)


def _trimmed_grid(grid: np.ndarray) -> np.ndarray:
    rows = grid.sum(axis=1) > 0
    cols = grid.sum(axis=0) > 0
    if not rows.all() or not cols.all():
        warnings.warn("dropping zero-marginal rows/columns from contingency grid")
    return grid[rows][:, cols]


def _pearson(grid: np.ndarray) -> float:
    """Pearson chi-square of a trimmed grid with at least 2 rows and 2 columns."""
    n = grid.sum()
    expected = grid.sum(axis=1, keepdims=True) * grid.sum(axis=0, keepdims=True) / n
    return float(((grid - expected) ** 2 / expected).sum())


def chi_square(ct: ContingencyTable) -> float:
    """Pearson chi-square; degenerate one-dimensional grids return 0 (flagged)."""
    grid = _trimmed_grid(np.asarray(ct.grid, dtype=np.float64))
    r, c = grid.shape
    if r < 2 or c < 2:
        warnings.warn(f"degenerate {r}x{c} contingency table; chi-square is 0 by convention")
        return 0.0
    return _pearson(grid)


def cramers_v(ct: ContingencyTable) -> float:
    """Effect size sqrt(chi2 / (n * min(r-1, c-1))) in [0, 1]."""
    grid = _trimmed_grid(np.asarray(ct.grid, dtype=np.float64))
    r, c = grid.shape
    if r < 2 or c < 2:
        warnings.warn(f"degenerate {r}x{c} contingency table; V is 0 by convention")
        return 0.0
    n = grid.sum()
    return float(np.sqrt(_pearson(grid) / (n * min(r - 1, c - 1))))


@dataclass(frozen=True)
class CorrelationMatrix:
    attributes: tuple[str, ...]
    values: np.ndarray  # symmetric (k, k)

    def to_dict(self) -> dict:
        return {
            "attributes": list(self.attributes),
            "matrix": [[round(v, 2) for v in row] for row in self.values.tolist()],
            "matrix_full_precision": self.values.tolist(),
        }


def correlation_matrix(table: Table, attrs: list[str] | None = None) -> CorrelationMatrix:
    """Pairwise Cramér's V grid; defaults to all categorical feature attributes
    (numeric attributes such as height are out by construction)."""
    if attrs is None:
        attrs = [a.name for a in table.schema.features if a.kind == CATEGORICAL]
    for name in attrs:
        if table.schema.attribute(name).kind != CATEGORICAL:
            raise DataError(f"attribute {name!r} is not categorical")
    k = len(attrs)
    values = np.zeros((k, k))
    for i in range(k):
        observed = {c for c in table.column(attrs[i]) if c is not None}
        if len(observed) < 2:
            warnings.warn(f"attribute {attrs[i]!r} is constant; diagonal stored as 0")
            values[i, i] = 0.0
        else:
            values[i, i] = 1.0
        for j in range(i + 1, k):
            v = cramers_v(contingency(table, attrs[i], attrs[j]))
            values[i, j] = values[j, i] = v
    return CorrelationMatrix(tuple(attrs), values)


class _FieldDocument:
    """A stats dataclass's JSON document: one key per field, in field order, tuples as lists.
    `from_dict` reads each field by name (a missing key is a KeyError) and lists back as tuples."""

    def to_dict(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}

    @classmethod
    def from_dict(cls, doc: dict):
        return cls(*(tuple(v) if isinstance(v, list) else v for v in (doc[f.name] for f in fields(cls))))


@dataclass(frozen=True)
class BoxStats(_FieldDocument):
    q1: float
    median: float
    q3: float
    whisker_low: float
    whisker_high: float
    outliers: tuple[float, ...]


def _quantile(sorted_values: np.ndarray, p: float) -> float:
    # linear interpolation on order statistics (numpy's default convention)
    pos = p * (len(sorted_values) - 1)
    i = int(np.floor(pos))
    frac = pos - i
    if i + 1 < len(sorted_values):
        return float(sorted_values[i] + frac * (sorted_values[i + 1] - sorted_values[i]))
    return float(sorted_values[i])


def box_stats(values) -> BoxStats:
    """Quartiles, whiskers at the most extreme points within 1.5 IQR, outliers beyond."""
    arr = np.sort(np.asarray(list(values), dtype=np.float64))
    if len(arr) == 0:
        raise DataError("box_stats of an empty sequence")
    q1 = _quantile(arr, 0.25)
    median = _quantile(arr, 0.5)
    q3 = _quantile(arr, 0.75)
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = arr[(arr >= lo_fence) & (arr <= hi_fence)]
    outliers = tuple(float(v) for v in arr[(arr < lo_fence) | (arr > hi_fence)])
    # whiskers extend from the box, never retract inside it (interpolated
    # quartiles can exceed every in-fence data point)
    whisker_low = min(float(inside[0]), q1)
    whisker_high = max(float(inside[-1]), q3)
    return BoxStats(q1, median, q3, whisker_low, whisker_high, outliers)


@dataclass(frozen=True)
class ViolinStats(_FieldDocument):
    grid: tuple[float, ...]
    density: tuple[float, ...]
    q1: float
    median: float
    q3: float
    min: float
    max: float


def kde(values, bandwidth: float | None = None, grid_size: int = 128) -> ViolinStats:
    """Gaussian KDE on a uniform grid spanning [min - 3h, max + 3h].

    Bandwidth defaults to Scott's rule h = std * n^(-1/5). The evaluated
    density is renormalized to integrate (trapezoid) to exactly 1 over the
    grid, which compensates the ~0.27% kernel mass outside the 3h margin. A
    degenerate sample (fewer than 2 distinct values and no explicit bandwidth)
    falls back to a narrow spike of width max(1e-3, |value| * 1e-3).
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if len(arr) == 0:
        raise DataError("kde of an empty sequence")
    if bandwidth is not None:
        h = float(bandwidth)
        if h <= 0:
            raise DataError("bandwidth must be positive")
    else:
        std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
        h = std * len(arr) ** (-0.2)
        if h == 0:
            h = max(1e-3, abs(float(arr[0])) * 1e-3)
    lo, hi = float(arr.min()) - 3 * h, float(arr.max()) + 3 * h
    grid = np.linspace(lo, hi, grid_size)
    z = (grid[None, :] - arr[:, None]) / h
    density = np.exp(-0.5 * z * z).sum(axis=0) / (len(arr) * h * np.sqrt(2 * np.pi))
    integral = float(np.trapezoid(density, grid))
    if integral > 0:
        density = density / integral
    q1, median, q3 = (_quantile(np.sort(arr), p) for p in (0.25, 0.5, 0.75))
    return ViolinStats(
        tuple(grid.tolist()),
        tuple(density.tolist()),
        q1,
        median,
        q3,
        float(arr.min()),
        float(arr.max()),
    )


def group_by_class(table: Table, attr: str) -> dict[Code, list[float]]:
    """Non-missing values per class; categorical codes map to plot numbers
    (the code itself when it is an int, otherwise its declared index)."""
    spec = table.schema.attribute(attr)
    cells = table.column(attr)
    if spec.kind == CATEGORICAL:
        cells = [
            cell if cell is None or isinstance(cell, int) else k
            for cell, k in zip(cells, spec.code_indices(cells).tolist())
        ]
    out: dict[Code, list[float]] = {code: [] for code in table.schema.class_codes}
    for cell, label in zip(cells, table.labels()):
        if cell is not None and label is not None:
            out[label].append(float(cell))
    return out
