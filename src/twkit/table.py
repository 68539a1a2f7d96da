"""The row-major mixed-type table, CSV ingestion, splits, missingness.

Cells are declared categorical codes, floats, or ``None`` for missing. Tables
are immutable after construction and validated against their schema. In CSV
form a missing cell is an empty field or the literal ``NA``.
Missing cells are found (`missing_rows`) and filled (`fill`) only here: an
imputer decides the values, and every observed cell passes through.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, SchemaError
from .schema import CATEGORICAL, Code, Schema
from .seeds import derive_seed

MISSING_TOKENS = ("", "NA")

# the values of the `origin` column an augmented table carries
ORIGIN_REAL = "real"
ORIGIN_SMOTENC = "smotenc"
ORIGIN_CGAN = "cgan"
ORIGINS = (ORIGIN_REAL, ORIGIN_SMOTENC, ORIGIN_CGAN)

Cell = Code | float | None
Row = tuple[Cell, ...]


def round_half_up(x: float) -> int:
    """Round with ties away from zero toward +inf (0.5 -> 1, 1.5 -> 2)."""
    return int(math.floor(x + 0.5))


def _is_number_type(t: type) -> bool:
    return issubclass(t, (int, float)) and not issubclass(t, bool)


def _column_valid(attr, column) -> bool:
    """Whether every cell of `column` is None, a declared code (categorical) or
    an int or float but not a bool (numeric)."""
    if attr.kind == CATEGORICAL:
        try:
            distinct = set(column)
        except TypeError:  # an unhashable cell, which is no code
            return False
        distinct.discard(None)
        return all(map(attr.is_code, distinct))
    distinct_types = set(map(type, column))
    distinct_types.discard(type(None))
    return all(map(_is_number_type, distinct_types))


@dataclass(frozen=True)
class Table:
    """Validated rows under a schema."""

    schema: Schema
    rows: tuple[Row, ...]

    def __post_init__(self):
        # each column is checked once per distinct value (categorical) or type
        # (numeric); only a table that fails is walked row by row, so that the
        # error names its first bad cell
        attrs = self.schema.attributes
        if set(map(len, self.rows)) <= {len(attrs)} and all(map(_column_valid, attrs, zip(*self.rows))):
            return
        categorical = [attr.kind == CATEGORICAL for attr in attrs]
        for r, row in enumerate(self.rows):
            if len(row) != len(attrs):
                raise DataError(f"row {r}: expected {len(attrs)} cells, got {len(row)}")
            for attr, is_cat, cell in zip(attrs, categorical, row):
                if cell is None:
                    continue
                if is_cat:
                    if not attr.is_code(cell):
                        raise DataError(f"row {r}, attribute {attr.name!r}: undeclared code {cell!r}")
                elif not _is_number_type(type(cell)):
                    raise DataError(f"row {r}, attribute {attr.name!r}: expected numeric, got {cell!r}")

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> list[Cell]:
        i = self.schema.index_of(name)
        return [row[i] for row in self.rows]

    def labels(self) -> list[Code]:
        i = self.schema.label_index
        return [row[i] for row in self.rows]

    def is_complete(self) -> bool:
        return not self.missing_rows()

    def replace_rows(self, rows) -> "Table":
        return Table(self.schema, tuple(tuple(r) for r in rows))

    def missing_rows(self) -> dict[int, list[int]]:
        """{column index: the ascending rows of its None cells}, for each
        column that has any, in attribute order."""
        columns = [(j, column) for j, column in enumerate(zip(*self.rows)) if None in column]
        return {j: [i for i, cell in enumerate(column) if cell is None] for j, column in columns}

    def fill(self, fills: dict[int, list[Cell]]) -> "Table":
        """A copy in which column j's None cells take `fills[j]`, in row order;
        every observed cell passes through. A ValueError when `fills[j]` does
        not hold one value per None cell of column j."""
        rows = [list(row) for row in self.rows]
        missing = self.missing_rows()
        for j, values in fills.items():
            for i, value in zip(missing.get(j, ()), values, strict=True):
                rows[i][j] = value
        return self.replace_rows(rows)


def _parse_cell(path, r: int, attr, token: str) -> Cell:
    """The cell a stripped field of data row `r` holds, or the data error naming the file and row."""
    try:
        return None if token in MISSING_TOKENS else attr.parse_token(token)
    except SchemaError as exc:
        raise DataError(f"{path}: row {r + 1}: {exc}") from None


def load_augmented_csv(path, schema: Schema) -> tuple[Table, list[str] | None]:
    """Read and validate a CSV whose header matches the schema attribute names,
    plus the `origin` column the augmenter writes, if present.

    Header order is free, and each column is named once. Errors name the
    offending row and column, or the row and value of an `origin` other than
    real, smotenc and cgan.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            raw_rows = list(reader)
    except (OSError, ValueError, csv.Error) as exc:  # ValueError: not UTF-8
        raise DataError(f"{path}: {exc}") from exc

    header = [h.strip() for h in header]
    known = {*schema.names, "origin"}
    for i, name in enumerate(header):
        if name not in known:
            raise DataError(f"{path}: unknown column {name!r}")
        if name in header[:i]:
            raise DataError(f"{path}: column {name!r} appears twice")
    origin_col = header.index("origin") if "origin" in header else None
    for name in schema.names:
        if name not in header:
            raise DataError(f"{path}: missing column {name!r}")

    # per column, a memo from raw token to parsed cell, so that each distinct
    # token is stripped and parsed once
    columns = [(a, header.index(a.name), dict.fromkeys(MISSING_TOKENS)) for a in schema.attributes]
    rows = []
    origins: list[str] = []
    for r, raw in enumerate(raw_rows):
        if len(raw) != len(header):
            raise DataError(f"{path}: row {r + 1} has {len(raw)} fields, expected {len(header)}")
        cells: list[Cell] = []
        for attr, pos, memo in columns:
            token = raw[pos]
            if token not in memo:
                memo[token] = _parse_cell(path, r, attr, token.strip())
            cells.append(memo[token])
        rows.append(tuple(cells))
        if origin_col is not None:
            origin = raw[origin_col].strip()
            if origin not in ORIGINS:
                expected = ", ".join(ORIGINS)
                raise DataError(
                    f"{path}: row {r + 1}: unknown origin {origin!r} (expected {expected})"
                )
            origins.append(origin)
    table = Table(schema, tuple(rows))
    return table, (origins if origin_col is not None else None)


def _format_cell(cell: Cell) -> str:
    if cell is None:
        return ""
    if isinstance(cell, float):
        return repr(float(cell))  # numpy's repr would spell np.float64(...)
    return str(cell)


def _format_column(attr, column: list[Cell]) -> list[str]:
    """The CSV field of each cell. A categorical column formats each distinct
    cell once, keyed with its type so that 1, 1.0 and True keep their own
    text; numeric cells are formatted one by one, as -0.0 equals 0.0."""
    if attr.kind != CATEGORICAL:
        return list(map(_format_cell, column))
    keys = list(zip(map(type, column), column))
    fields = {key: _format_cell(key[1]) for key in set(keys)}
    return list(map(fields.__getitem__, keys))


def save_csv(table: Table, path, origins: list[str] | None = None) -> None:
    """Write a table (and an `origin` column if given) as CSV; a numeric cell the reader rejects raises first."""
    if origins is not None and len(origins) != len(table):
        raise DataError("origins length does not match row count")
    columns = [_format_column(attr, table.column(attr.name)) for attr in table.schema.attributes]
    for attr, fields in zip(table.schema.attributes, columns):
        for r, field in enumerate(fields if attr.kind != CATEGORICAL else ()):
            _parse_cell(path, r, attr, field)
    if origins is not None:
        columns.append(origins)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = list(table.schema.names) + (["origin"] if origins is not None else [])
        writer.writerow(header)
        writer.writerows(zip(*columns))


def class_histogram(table: Table) -> dict[Code, int]:
    """Row count per declared class code; absent classes report 0."""
    counts = {code: 0 for code in table.schema.class_codes}
    for label in table.labels():
        if label is not None:
            counts[label] += 1
    return counts


def inject_missing(
    table: Table, features: list[str], rate: float, seed: int
) -> tuple[Table, np.ndarray]:
    """Blank exactly round(rate * n_rows) cells per named feature, MCAR.

    Returns the new table and its (n_rows, n_attributes) int8 grid of observed
    cells (1 = observed, 0 = missing).

    Each feature gets its own generator seeded from (seed, feature name), so
    adding or reordering features does not disturb the other streams. The
    named features must be fully observed beforehand.
    """
    if not 0 < rate < 1:
        raise DataError(f"rate must be in (0, 1), got {rate}")
    n = len(table)
    k = round_half_up(rate * n)
    cols = {}
    for name in features:
        idx = table.schema.index_of(name)
        if any(row[idx] is None for row in table.rows):
            raise DataError(f"feature {name!r} already contains missing cells")
        rng = np.random.default_rng(derive_seed(seed, name))
        cols[idx] = set(rng.choice(n, size=k, replace=False).tolist())
    rows = [
        tuple(None if (j in cols and i in cols[j]) else cell for j, cell in enumerate(row))
        for i, row in enumerate(table.rows)
    ]
    observed = np.array([[cell is not None for cell in row] for row in rows], dtype=np.int8)
    return table.replace_rows(rows), observed.reshape(n, len(table.schema.attributes))


def kfold_stratified(table: Table, k: int, seed: int) -> list[tuple[Table, Table]]:
    """Stratified k-fold partition: per class, shuffled members deal round-robin
    into folds; classes with fewer members than folds simply skip some folds."""
    if k < 2:
        raise DataError(f"k must be >= 2, got {k}")
    if len(table) == 0:
        raise DataError("cannot fold an empty table")
    rng = np.random.default_rng(seed)
    fold_of = [0] * len(table)
    by_class: dict[Code, list[int]] = {}
    for i, label in enumerate(table.labels()):
        by_class.setdefault(label, []).append(i)
    for code in table.schema.class_codes:
        members = by_class.get(code, [])
        order = rng.permutation(len(members))
        for pos, p in enumerate(order):
            fold_of[members[p]] = pos % k
    splits = []
    for fold in range(k):
        train_rows = [table.rows[i] for i in range(len(table)) if fold_of[i] != fold]
        test_rows = [table.rows[i] for i in range(len(table)) if fold_of[i] == fold]
        splits.append((table.replace_rows(train_rows), table.replace_rows(test_rows)))
    return splits


def split_stratified(table: Table, test_fraction: float, seed: int) -> tuple[Table, Table]:
    """Per-class proportional train/test split; singleton classes go to train."""
    if len(table) == 0:
        raise DataError("cannot split an empty table")
    if not 0 < test_fraction < 1:
        raise DataError(f"test_fraction must be in (0, 1), got {test_fraction}")
    by_class: dict[Code, list[int]] = {}
    for i, label in enumerate(table.labels()):
        by_class.setdefault(label, []).append(i)
    rng = np.random.default_rng(seed)
    test_idx: list[int] = []
    # iterate classes in declared order so the draw sequence is stable
    for code in table.schema.class_codes:
        members = by_class.get(code, [])
        if len(members) <= 1:
            continue
        k = min(round_half_up(test_fraction * len(members)), len(members) - 1)
        picked = rng.permutation(len(members))[:k]
        test_idx.extend(members[p] for p in picked)
    if not test_idx:
        raise DataError(f"test_fraction {test_fraction} leaves no test rows in {len(table)} rows")
    test_set = set(test_idx)
    train_rows = [table.rows[i] for i in range(len(table)) if i not in test_set]
    test_rows = [table.rows[i] for i in sorted(test_set)]
    return table.replace_rows(train_rows), table.replace_rows(test_rows)
