"""Invertible numeric embedding of a table.

Categorical attributes become one-hot blocks, numerics are min-max scaled to
[0, 1], missing cells encode as all-zero entries with a mask of 0. Code order
comes from the schema: a code's one-hot column, like its label index, is its
position in the attribute's declared codes (`AttributeSpec.code_indices`).
The codec records block layout plus numeric ranges so train and test data
share one embedding, and so matrices decode back to tables.

Decoded numerics are rounded to 9 decimals, which makes min-max round-trips
exact for values recorded at any sane precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CodecError, DataError
from .schema import CATEGORICAL, Code, Schema
from .table import Cell, Table


@dataclass(frozen=True)
class Block:
    """Column group for one attribute: a one-hot span or a scaled numeric."""

    attribute: str
    start: int
    codes: tuple[Code, ...] = ()  # empty for numeric
    lo: float = 0.0
    hi: float = 1.0

    @property
    def width(self) -> int:
        return len(self.codes) if self.codes else 1

    @property
    def stop(self) -> int:
        return self.start + self.width


@dataclass(frozen=True)
class Codec:
    """Ordered block layout over a subset of schema attributes."""

    blocks: tuple[Block, ...]

    @property
    def width(self) -> int:
        return self.blocks[-1].stop if self.blocks else 0

    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(b.attribute for b in self.blocks)

    def categorical_spans(self) -> list[tuple[int, int]]:
        return [(b.start, b.stop) for b in self.blocks if b.codes]


@dataclass(frozen=True)
class EncodedMatrix:
    """Real-valued (n, d) grid plus the codec that produced it."""

    values: np.ndarray
    codec: Codec

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[1] != self.codec.width:
            raise CodecError(
                f"matrix width {self.values.shape} does not match codec width {self.codec.width}"
            )


def build_codec(table: Table, attributes: tuple[str, ...] | None = None) -> Codec:
    """Derive a codec from the table (code order from schema, ranges from data)."""
    names = attributes if attributes is not None else table.schema.names
    blocks = []
    start = 0
    for name in names:
        attr = table.schema.attribute(name)
        if attr.kind == CATEGORICAL:
            block = Block(attribute=name, start=start, codes=attr.codes)
        else:
            observed = [c for c in table.column(name) if c is not None]
            if not observed:
                raise CodecError(f"attribute {name!r} has no observed values to derive a range")
            block = Block(
                attribute=name,
                start=start,
                lo=float(min(observed)),
                hi=float(max(observed)),
            )
        blocks.append(block)
        start = block.stop
    return Codec(tuple(blocks))


def encode(table: Table, codec_source: Codec | None = None) -> EncodedMatrix:
    """Embed a table under `codec_source`, so two tables share one embedding,
    or else under `build_codec(table)`. A numeric value outside the reused
    codec range clamps to the range."""
    codec = build_codec(table) if codec_source is None else codec_source

    values = np.zeros((len(table), codec.width), dtype=np.float64)
    for block in codec.blocks:
        column = table.column(block.attribute)
        if block.codes:
            attr = table.schema.attribute(block.attribute)
            if block.codes != attr.codes:
                raise CodecError(f"attribute {block.attribute!r}: codec codes differ from the schema's")
            k = attr.code_indices(column)
            seen = k >= 0
            values[seen, block.start + k[seen]] = 1.0
        else:
            seen = _observed(column)
            v = np.array(column, dtype=np.float64)[seen]
            span = block.hi - block.lo
            values[seen, block.start] = 0.5 if span == 0 else np.clip((v - block.lo) / span, 0.0, 1.0)
    return EncodedMatrix(values, codec)


def decode_block(block: Block, values: np.ndarray) -> list[Cell]:
    """One attribute's cell for each row of `values`, the block's columns of
    an encoded matrix: the code at the first maximum for a one-hot block; for
    a numeric, the value clamped to [0, 1] as a Python float, unscaled and
    rounded to 9 decimals."""
    if block.codes:
        return [block.codes[k] for k in values.argmax(axis=1).tolist()]
    return [round(block.lo + min(max(t, 0.0), 1.0) * (block.hi - block.lo), 9) for t in values[:, 0].tolist()]


def decode_cells(values: np.ndarray, codec: Codec) -> list[dict[str, Cell]]:
    """Per-row {attribute: cell} maps, each block decoded by `decode_block`."""
    out: list[dict[str, Cell]] = [{} for _ in range(values.shape[0])]
    for block in codec.blocks:
        for cells, cell in zip(out, decode_block(block, values[:, block.start : block.stop])):
            cells[block.attribute] = cell
    return out


def require_cover(codec: Codec, schema: Schema) -> None:
    """Raise a CodecError unless the codec covers every schema attribute, as
    decoding a table needs."""
    missing = set(schema.names) - set(codec.attributes)
    if missing:
        raise CodecError(f"codec does not cover attributes {sorted(missing)}; cannot decode a table")


def decode(encoded: EncodedMatrix, schema: Schema) -> Table:
    """Rebuild a full table; the codec must cover every schema attribute."""
    require_cover(encoded.codec, schema)
    rows = []
    for cells in decode_cells(encoded.values, encoded.codec):
        rows.append(tuple(cells[name] for name in schema.names))
    return Table(schema, tuple(rows))


def _observed(column: list[Cell]) -> np.ndarray:
    return np.fromiter((cell is not None for cell in column), dtype=bool, count=len(column))


def expand_mask(table: Table, codec: Codec) -> np.ndarray:
    """The (n, codec.width) observed matrix: 1.0 across each attribute's
    encoded columns where the table's cell is observed, 0.0 where it is None."""
    out = np.empty((len(table), codec.width), dtype=np.float64)
    for block in codec.blocks:
        out[:, block.start : block.stop] = _observed(table.column(block.attribute))[:, None]
    return out


def label_indices(table: Table) -> np.ndarray:
    """Class labels as indices into the schema's declared class-code order."""
    label = table.schema.label
    indices = label.code_indices(table.labels())
    unlabelled = int((indices < 0).sum())
    if unlabelled:
        raise DataError(f"{unlabelled} row(s) have no class label ({label.name!r} is empty)")
    return indices

