"""Property tests at the JSON boundary: `write_json` either writes a document
that `read_json` reads back equal, or raises one data error naming the file
and writes nothing, as for a document holding `NaN` or `Infinity`; and
`read_json` reads a number token as its float, or, when the token overflows a
float, raises one data error naming the file. A value `json` cannot serialise
raises before `write_json` opens the file."""

import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from twkit.errors import DataError
from twkit.jsonio import read_json, write_json

DOCUMENTS = st.recursive(
    st.one_of(
        st.text(max_size=5), st.integers(), st.floats(),
        st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e308]),
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)


def _finite(doc) -> bool:
    """Whether every number in `doc` is finite, written independently of twkit."""
    if isinstance(doc, float):
        return math.isfinite(doc)
    if isinstance(doc, list):
        return all(map(_finite, doc))
    if isinstance(doc, dict):
        return all(map(_finite, doc.values()))
    return True


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(DOCUMENTS)
def test_document_reads_back_or_is_one_data_error(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        if _finite(doc):
            event("written")
            write_json(path, doc)
            assert read_json(path, lambda d: d, "document") == doc
        else:
            event("rejected")
            with pytest.raises(DataError, match=f"^{re.escape(str(path))}: "):
                write_json(path, doc)
            assert not list(Path(tmp).iterdir())


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(["1", "-2.5", "9.99"]), st.integers(-400, 400))
def test_number_token_reads_finite_or_is_one_data_error(mantissa, exponent):
    token = f"{mantissa}e{exponent}"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(f'{{"x": [{token}, 0.5]}}', encoding="utf-8")
        if math.isfinite(float(token)):
            event("finite")
            assert read_json(path, lambda d: d, "document") == {"x": [float(token), 0.5]}
        else:
            event("overflows")
            with pytest.raises(DataError, match=f"^{re.escape(f'{path}: non-finite number {token} ')}"):
                read_json(path, lambda d: d, "document")


def test_unserialisable_value_raises_before_the_file_is_opened(tmp_path):
    path = tmp_path / "doc.json"
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_json(path, {"a": 1, "b": object()})
    assert not path.exists()
