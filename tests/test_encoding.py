import dataclasses

import numpy as np
import pytest

from twkit import default_synthesis_spec, synthesize_corpus
from twkit.encoding import (
    Block,
    Codec,
    build_codec,
    decode,
    encode,
    expand_mask,
    label_indices,
)
from twkit.errors import CodecError, DataError
from twkit.table import Table, inject_missing


def _encode_reference(table, codec):
    """The per-cell encoder that the column-wise `encode` replaced."""
    values = np.zeros((len(table), codec.width), dtype=np.float64)
    for block in codec.blocks:
        col = table.schema.index_of(block.attribute)
        if block.codes:
            index = {code: k for k, code in enumerate(block.codes)}
            for i, row in enumerate(table.rows):
                if row[col] is not None:
                    values[i, block.start + index[row[col]]] = 1.0
        else:
            lo, hi = block.lo, block.hi
            span = hi - lo
            for i, row in enumerate(table.rows):
                if row[col] is not None:
                    v = float(row[col])
                    values[i, block.start] = 0.5 if span == 0 else min(max((v - lo) / span, 0.0), 1.0)
    return values


def _label_indices_reference(table):
    """The per-row label lookup that the column-wise `label_indices` replaced."""
    order = {code: i for i, code in enumerate(table.schema.class_codes)}
    return np.array([order[label] for label in table.labels()], dtype=np.int64)


def _with_int_heights(table):
    h = table.schema.index_of("height")
    return table.replace_rows(
        r[:h] + (None if r[h] is None else int(round(r[h])),) + r[h + 1:] for r in table.rows
    )


def _block(codec, attribute):
    return next(b for b in codec.blocks if b.attribute == attribute)


def test_one_hot_block(schema, corpus_200):
    enc = encode(corpus_200)
    block = _block(enc.codec, "headgear")
    assert block.width == 5
    i = next(i for i, row in enumerate(corpus_200.rows) if row[schema.index_of("headgear")] == 2)
    np.testing.assert_array_equal(enc.values[i, block.start : block.stop], [0, 0, 1, 0, 0])


def test_min_max_midpoint(schema):
    rows = [
        (1, 1, 1, 1, 170.0, 0, 0, 3, 1, 1, "RW"),
        (1, 1, 1, 1, 180.0, 0, 0, 3, 1, 1, "RW"),
        (1, 1, 1, 1, 190.0, 0, 0, 3, 1, 1, "AW"),
    ]
    table = Table(schema, tuple(rows))
    enc = encode(table)
    h = _block(enc.codec, "height")
    assert enc.values[1, h.start] == 0.5
    assert enc.values[0, h.start] == 0.0
    assert enc.values[2, h.start] == 1.0


def test_constant_numeric_maps_to_half(schema):
    rows = [(1, 1, 1, 1, 178.0, 0, 0, 3, 1, 1, "RW")] * 3
    table = Table(schema, tuple(rows))
    enc = encode(table)
    h = _block(enc.codec, "height")
    assert (enc.values[:, h.start] == 0.5).all()
    assert decode(enc, schema).rows == table.rows


def test_round_trip_complete_tables(schema):
    # round-trip oracle over freshly generated tables
    for seed in range(5):
        table = synthesize_corpus(default_synthesis_spec(), 20, seed=seed)
        enc = encode(table)
        assert decode(enc, schema).rows == table.rows


def test_missing_encodes_to_zero_block(schema, corpus_200):
    injected, mask = inject_missing(corpus_200, ["headgear", "height"], 0.3, seed=2)
    enc = encode(injected)
    hg = _block(enc.codec, "headgear")
    h = _block(enc.codec, "height")
    for i, row in enumerate(injected.rows):
        if row[schema.index_of("headgear")] is None:
            assert enc.values[i, hg.start : hg.stop].sum() == 0.0
        if row[schema.index_of("height")] is None:
            assert enc.values[i, h.start] == 0.0


def test_codec_reuse_and_strict(schema):
    rows_a = [(1, 1, 1, 1, 170.0, 0, 0, 3, 1, 1, "RW"), (1, 1, 1, 1, 180.0, 0, 0, 3, 1, 1, "AW")]
    rows_b = [(1, 1, 1, 1, 200.0, 0, 0, 3, 1, 1, "RW")]
    ta = Table(schema, tuple(rows_a))
    tb = Table(schema, tuple(rows_b))
    enc_a = encode(ta)
    enc_b = encode(tb, codec_source=enc_a.codec)
    h = _block(enc_a.codec, "height")
    assert enc_b.values[0, h.start] == 1.0  # clamped into the training range


def test_feature_only_codec(schema, corpus_200):
    names = tuple(a.name for a in schema.features)
    enc = encode(corpus_200, build_codec(corpus_200, names))
    assert enc.codec.attributes == names
    with pytest.raises(CodecError):
        decode(enc, schema)  # label not covered


def _expand_mask_reference(observed, codec, schema):
    """The expansion of a per-attribute observed grid that `expand_mask`
    replaced, indexed by each block's column in the schema."""
    out = np.zeros((observed.shape[0], codec.width), dtype=np.float64)
    for block in codec.blocks:
        col = schema.index_of(block.attribute)
        out[:, block.start : block.stop] = observed[:, col : col + 1]
    return out


def test_expand_mask(schema, corpus_200):
    injected, observed = inject_missing(corpus_200, ["headgear", "height"], 0.3, seed=4)
    enc = encode(injected)
    expanded = expand_mask(injected, enc.codec)
    hg = _block(enc.codec, "headgear")
    idx = schema.index_of("headgear")
    for i in range(len(injected)):
        expected = 0.0 if injected.rows[i][idx] is None else 1.0
        assert (expanded[i, hg.start : hg.stop] == expected).all()
    assert expanded.shape == enc.values.shape
    assert expanded.dtype == np.float64
    for codec in (enc.codec, build_codec(injected, ("height", "headgear", "tw_class"))):
        reference = _expand_mask_reference(observed, codec, schema)
        assert expand_mask(injected, codec).tobytes() == reference.tobytes()
    assert expand_mask(injected.replace_rows([]), enc.codec).shape == (0, enc.codec.width)


def test_label_helpers(schema, corpus_200):
    idx = label_indices(corpus_200)
    assert idx.shape == (len(corpus_200),)
    for i, row in enumerate(corpus_200.rows):
        assert schema.class_codes[idx[i]] == row[schema.label_index]


def test_encode_values_in_unit_interval(corpus_200):
    enc = encode(corpus_200)
    assert enc.values.min() >= 0.0
    assert enc.values.max() <= 1.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_encode_matches_per_cell_reference(corpus_200, seed):
    # missing cells in every column, the label included
    injected, _ = inject_missing(corpus_200, list(corpus_200.schema.names), 0.2, seed=seed)
    features = tuple(a.name for a in corpus_200.schema.features)
    for table in (corpus_200, injected, _with_int_heights(injected)):
        for attributes in (None, features):
            enc = encode(table, build_codec(table, attributes))
            assert enc.values.tobytes() == _encode_reference(table, enc.codec).tobytes()


def test_encode_matches_reference_with_a_reused_clamping_codec(corpus_200):
    # a codec whose height range is narrower than the table's clamps both ends
    full = build_codec(corpus_200)
    codec = Codec(tuple(
        dataclasses.replace(b, lo=174.0, hi=182.0) if b.attribute == "height" else b for b in full.blocks
    ))
    injected, _ = inject_missing(corpus_200, ["height", "headgear"], 0.3, seed=5)
    h = _block(codec, "height")
    for table in (injected, _with_int_heights(injected)):
        enc = encode(table, codec)
        assert enc.values.tobytes() == _encode_reference(table, codec).tobytes()
        heights = [v for v in table.column("height") if v is not None]
        assert min(heights) < h.lo and max(heights) > h.hi


@pytest.mark.parametrize("codes", [(0, 1, 2, 3), (4, 3, 2, 1, 0), (0, 1, 2, 3, 4, 5)])
def test_codec_codes_must_match_the_schema(corpus_200, codes):
    codec = Codec((Block("headgear", 0, codes),))
    with pytest.raises(CodecError, match="'headgear'"):
        encode(corpus_200, codec)
    with pytest.raises(CodecError):  # checked per block, so also with no rows
        encode(corpus_200.replace_rows([]), codec)


def test_label_indices_match_per_row_reference(corpus_200, corpus_1087):
    for table in (corpus_200, corpus_1087):
        assert label_indices(table).tobytes() == _label_indices_reference(table).tobytes()


def test_label_indices_count_rows_without_a_label(corpus_200):
    label = corpus_200.schema.label_index
    rows = [r[:label] + (None,) + r[label + 1:] if i in (3, 9) else r for i, r in enumerate(corpus_200.rows)]
    with pytest.raises(DataError, match=r"^2 row\(s\) have no class label"):
        label_indices(corpus_200.replace_rows(rows))
