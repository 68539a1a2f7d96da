import dataclasses

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
