"""Property tests at the synthesis-spec boundary: an edit of the default spec's
document either loads, with every probability and height a float and every
sigma non-negative, and `twkit synth --spec` writes its CSV (or, when a drawn
code has no coupling mapping, exits 1 with one `error: coupling` line); or it
is one data error naming the file, which `twkit synth --spec` reports as exit
1 with one `error:` line and no CSV."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from twkit.cli import main
from twkit.errors import DataError
from twkit.schema import default_schema
from twkit.synth import default_synthesis_spec, load_spec


@pytest.fixture(scope="module")
def default_document(write_spec, tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "spec.json"
    write_spec(default_synthesis_spec(), path)
    return json.loads(path.read_text(encoding="utf-8"))


def _paths(doc, prefix=()):
    """The path (keys and indices) of every node of `doc`, the root first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _strings(doc):
    """Every key and string in `doc`: codes, classes and attribute names."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield key
            yield from _strings(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _strings(value)
    elif isinstance(doc, str):
        yield doc


def _values(names):
    return st.recursive(
        st.one_of(
            st.integers(-3, 3), st.integers(), st.booleans(), st.none(), st.sampled_from(names),
            st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([0.0, 0.5, 1.0, -4.0, 10**400]),
            st.text(max_size=4),
        ),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(names), inner, max_size=2),
        max_leaves=4,
    )


def _same_kind(draw, value, endpoints):
    """A value of the kind `value` is: for a string (a coupling's target or
    source), another of the document's coupled attributes; a number for a
    number (the same value as an int or a float among them); a list reordered."""
    if isinstance(value, str):
        return draw(st.sampled_from(endpoints))
    if isinstance(value, list):
        return draw(st.permutations(value))
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        same = [value, int(value)] if float(value).is_integer() else [value]
        return draw(st.sampled_from(same) | st.integers(-1, 250) | st.floats(-1.0, 250.0))
    return value


@st.composite
def _edit(draw, doc, names, endpoints):
    """`doc` with one node replaced, retyped or deleted, or with a key added.
    Two edits in three fall in the parts that hold no probabilities, which can
    be edited and still load: the heights, and each coupling's target and
    source."""
    region = draw(st.sampled_from([(), ("height_model",), ("couplings",)]))
    paths = [
        p for p in _paths(doc)
        if p[: len(region)] == region and (region != ("couplings",) or len(p) <= 3)
    ] or [()]
    path = draw(st.sampled_from(paths))
    if not path:
        return draw(_values(names)) if draw(st.integers(0, 4)) == 0 else doc
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    action = draw(st.sampled_from(["replace", "same kind", "same kind", "delete", "add"]))
    if action == "replace":
        node[last] = draw(_values(names))
    elif action == "same kind":
        node[last] = _same_kind(draw, node[last], endpoints)
    elif action == "delete":
        del node[last]
    elif isinstance(node, dict):
        node[draw(st.sampled_from(names))] = draw(_values(names))
    else:
        node.append(draw(_values(names)))
    return doc


@st.composite
def spec_document(draw, base):
    names = sorted(set(_strings(base)))
    endpoints = sorted({end for c in base["couplings"] for end in (c["target"], c["source"])})
    doc = base
    for _ in range(draw(st.integers(1, 2))):
        doc = draw(_edit(doc, names, endpoints))
    return doc


def _synth(path, out) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["synth", "--n", "30", "--seed", "1", "--spec", str(path), "--out", str(out)])
    return code, err.getvalue()


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_spec_loads_typed_or_fails_cleanly(default_document, data):
    doc = data.draw(spec_document(default_document))
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "spec.json", Path(tmp) / "tw.csv"
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            spec = load_spec(path, default_schema())
        except DataError as exc:
            event("data error")
            assert str(path) in str(exc)
            code, err = _synth(path, out)
            assert code == 1
            assert len(err.splitlines()) == 1
            assert err.startswith("error: ") and str(path) in err
            assert not out.exists()
            return
        event("loads")
        weights = [spec.class_weights, *(d for per_class in spec.conditionals.values() for d in per_class.values())]
        weights += [d for c in spec.couplings for d in c.mapping.values()]
        assert all(type(p) is float and p >= 0 for dist in weights for p in dist.values())
        for mean, sigma in spec.height_model.values():
            assert type(mean) is float and type(sigma) is float
            assert math.isfinite(mean) and 0 <= sigma < math.inf
        code, err = _synth(path, out)
        if code:  # a class drawn from a code the coupling maps nothing for
            event("synthesis error")
            assert code == 1 and len(err.splitlines()) == 1 and err.startswith("error: coupling ")
            assert not out.exists()
        else:
            assert out.exists()
