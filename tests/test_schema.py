import dataclasses
import re

import numpy as np
import pytest

from twkit.errors import SchemaError
from twkit.schema import CATEGORICAL, NUMERIC, AttributeSpec, Schema


def test_default_schema_shape(schema):
    assert len(schema.attributes) == 11
    kinds = [a.kind for a in schema.features]
    assert kinds.count(CATEGORICAL) == 9
    assert kinds.count(NUMERIC) == 1
    assert schema.label.name == "tw_class"
    assert schema.class_codes == ("RW", "AW", "CS", "CT", "HR", "MR", "LR")


def test_default_schema_codes(schema):
    assert schema.attribute("headgear").codes == (0, 1, 2, 3, 4)
    assert schema.attribute("t_id").codes == (1, 2, 10, 19, 20)
    assert schema.attribute("c_id").codes == tuple(range(1, 12)) + ("K",)
    assert schema.attribute("height").unit == "centimeters"


def test_codes_follow_categories_through_replace():
    spec = AttributeSpec(name="x", kind=CATEGORICAL, categories=((0, "a"), ("K", "b")))
    assert spec.codes == (0, "K")
    assert spec.code_index("K") == 1
    wider = dataclasses.replace(spec, categories=spec.categories + ((5, "c"),))
    assert wider.codes == (0, "K", 5)
    assert spec == AttributeSpec(name="x", kind=CATEGORICAL, categories=((0, "a"), ("K", "b")))
    assert spec != wider
    assert repr(spec) == (
        "AttributeSpec(name='x', kind='categorical', categories=((0, 'a'), ('K', 'b')), "
        "unit='', role='feature')"
    )
    assert AttributeSpec(name="h", kind=NUMERIC).codes == ()


def test_code_indices_map_cells_to_positions():
    spec = AttributeSpec(name="x", kind=CATEGORICAL, categories=((0, "a"), (1, "b"), ("K", "c")))
    k = spec.code_indices(["K", None, 1, 0, 1.0, True])
    assert k.dtype == np.intp
    assert k.tolist() == [2, -1, 1, 0, 1, 1]
    assert spec.code_indices([]).shape == (0,)
    wider = dataclasses.replace(spec, categories=spec.categories + ((5, "d"),))
    assert wider.code_indices([5, "K"]).tolist() == [3, 2]


@pytest.mark.parametrize("cells, named", [([0, "Z"], "'Z'"), ([None, 5], "5"), ([0, [1]], "[1]")])
def test_code_indices_reject_an_undeclared_code(cells, named):
    spec = AttributeSpec(name="x", kind=CATEGORICAL, categories=((0, "a"), (1, "b")))
    with pytest.raises(SchemaError, match=rf"x: undeclared code {re.escape(named)}"):
        spec.code_indices(cells)


def test_categorical_needs_two_codes():
    with pytest.raises(SchemaError):
        AttributeSpec(name="x", kind=CATEGORICAL, categories=((0, "only"),))


def test_duplicate_codes_rejected():
    with pytest.raises(SchemaError):
        AttributeSpec(name="x", kind=CATEGORICAL, categories=((0, "a"), (0, "b")))


def test_numeric_cannot_declare_codes():
    with pytest.raises(SchemaError):
        AttributeSpec(name="x", kind=NUMERIC, categories=((0, "a"), (1, "b")))


def test_exactly_one_label():
    a = AttributeSpec(name="a", kind=CATEGORICAL, categories=((0, "x"), (1, "y")))
    b = AttributeSpec(name="b", kind=NUMERIC)
    with pytest.raises(SchemaError):
        Schema(attributes=(a, b))


def test_unique_names():
    a = AttributeSpec(name="a", kind=CATEGORICAL, categories=((0, "x"), (1, "y")))
    lab = AttributeSpec(name="a", kind=CATEGORICAL, categories=((0, "x"), (1, "y")), role="label")
    with pytest.raises(SchemaError):
        Schema(attributes=(a, lab))


def test_parse_token(schema):
    c_id = schema.attribute("c_id")
    assert c_id.parse_token("3") == 3
    assert c_id.parse_token("K") == "K"
    with pytest.raises(SchemaError):
        c_id.parse_token("12")
    height = schema.attribute("height")
    assert height.parse_token("178.5") == 178.5
    with pytest.raises(SchemaError):
        height.parse_token("tall")


def _reference_parse_token(attr, token):
    """The scan parse_token replaced: the first declared code whose str is `token`."""
    if attr.kind == NUMERIC:
        try:
            return float(token)
        except ValueError:
            raise SchemaError(f"{attr.name}: non-numeric value {token!r}") from None
    for code in attr.codes:
        if str(code) == token:
            return code
    raise SchemaError(f"{attr.name}: undeclared code {token!r}")


ODD_TOKENS = ("", "NA", "1.0", "01", " 1", "1 ", "True", "k", "rw", "-1", "12", "0x1", "178.5")


def _parse_both(attr, token):
    outcomes = []
    for parse in (attr.parse_token, lambda t: _reference_parse_token(attr, t)):
        try:
            value = parse(token)
            outcomes.append((type(value), value))
        except SchemaError as exc:
            outcomes.append(("error", str(exc)))
    return outcomes


MIXED = AttributeSpec(name="m", kind=CATEGORICAL, categories=((1, "int one"), ("1", "str one"), ("K", "k")))
MIXED_REVERSED = AttributeSpec(name="m", kind=CATEGORICAL, categories=(("1", "str one"), (1, "int one")))


@pytest.mark.parametrize("attr_name", ["c_id", "t_id", "headgear", "tw_class"])
def test_parse_token_matches_scan(schema, attr_name):
    attr = schema.attribute(attr_name)
    for token in [str(c) for c in attr.codes] + list(ODD_TOKENS):
        new, old = _parse_both(attr, token)
        assert new == old, token


def test_parse_token_first_declared_code_wins():
    for attr, expected in ((MIXED, 1), (MIXED_REVERSED, "1")):
        for token in ("1", "K", "2", "1.0"):
            new, old = _parse_both(attr, token)
            assert new == old, token
        value = attr.parse_token("1")
        assert value == expected and type(value) is type(expected)


def test_parse_token_numeric_finite_only(schema):
    height = schema.attribute("height")
    for token in ("178.5", "-3", "1e3", "0", " 170 "):
        assert height.parse_token(token) == _reference_parse_token(height, token)
    for token in ("nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-1e999"):
        with pytest.raises(SchemaError, match=f"height: non-finite value {token!r}"):
            height.parse_token(token)
