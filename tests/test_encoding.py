import numpy as np
import pytest

from twkit import default_synthesis_spec, synthesize_corpus
from twkit.encoding import (
    decode,
    encode,
    expand_mask,
    label_indices,
)
from twkit.errors import CodecError
from twkit.table import Table, inject_missing


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
    enc_b = encode(tb, codec_source=enc_a)
    h = _block(enc_a.codec, "height")
    assert enc_b.values[0, h.start] == 1.0  # clamped into the training range


def test_feature_only_codec(schema, corpus_200):
    names = tuple(a.name for a in schema.features)
    enc = encode(corpus_200, attributes=names)
    assert enc.codec.attributes == names
    with pytest.raises(CodecError):
        decode(enc, schema)  # label not covered


def test_expand_mask(schema, corpus_200):
    injected, mask = inject_missing(corpus_200, ["headgear"], 0.3, seed=4)
    enc = encode(injected)
    expanded = expand_mask(mask, enc.codec)
    hg = _block(enc.codec, "headgear")
    idx = schema.index_of("headgear")
    for i in range(len(injected)):
        expected = 0.0 if injected.rows[i][idx] is None else 1.0
        assert (expanded[i, hg.start : hg.stop] == expected).all()
    assert expanded.shape == enc.values.shape


def test_label_helpers(schema, corpus_200):
    idx = label_indices(corpus_200)
    assert idx.shape == (len(corpus_200),)
    for i, row in enumerate(corpus_200.rows):
        assert schema.class_codes[idx[i]] == row[schema.label_index]


def test_encode_values_in_unit_interval(corpus_200):
    enc = encode(corpus_200)
    assert enc.values.min() >= 0.0
    assert enc.values.max() <= 1.0
