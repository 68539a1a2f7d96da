"""Property tests at the plot-payload and plan boundary: an edit of a valid
`importance`, `box`, `violin` or `heatmap` payload either renders, with
`twkit plot` exiting 0, or is one data error naming the file, reported as
exit 1 with one `error:` line and no figure; and an edit of a valid plan
either augments a small corpus, with `twkit augment --epochs 1` exiting 0, or
is one data error naming the plan file, with no CSV written. Every figure
written is well-formed XML, whatever characters its text and title hold."""

import contextlib
import io
import json
import tempfile
import xml.etree.ElementTree as ElementTree
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from twkit.analyze import CorrelationMatrix, box_stats, kde
from twkit.augment import MAX_PLAN_ROWS
from twkit.cli import main
from twkit.synth import default_synthesis_spec, synthesize_corpus
from twkit.table import class_histogram, save_csv

# per class, a few heights with an outlier, so that every box draws one
_HEIGHTS = {"RW": [176.0, 178.5, 179.0, 181.0, 195.0], "AW": [172.0, 174.5, 175.0, 178.0]}


def _stats_panels(kind, stats):
    return {
        "classes": list(_HEIGHTS),
        "panels": [{"attribute": "height", kind: {c: stats(v).to_dict() for c, v in _HEIGHTS.items()}}],
    }


PAYLOADS = {
    "importance": {"importance": [["headgear", 0.5], ["weapon", 0.3], ["height", 0.2]]},
    "box": _stats_panels("box", box_stats),
    "violin": _stats_panels("violin", lambda v: kde(v, grid_size=6)),
    "heatmap": CorrelationMatrix(
        ("hairstyle", "headgear", "weapon"), np.array([[1.0, 0.4, 0.1], [0.4, 1.0, 0.25], [0.1, 0.25, 1.0]]),
    ).to_dict(),
}


def _paths(doc, prefix=()):
    """The path (keys and indices) of every node of `doc`, the root first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _strings(doc):
    """Every key and string in `doc`: classes, attributes and field names."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield key
            yield from _strings(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _strings(value)
    elif isinstance(doc, str):
        yield doc


# short strings of any characters, control characters and the ones XML 1.0
# cannot hold (a lone surrogate, U+FFFE, U+FFFF) drawn often
TEXT = st.text(st.characters() | st.sampled_from("\x00\x01\x08\x0b\x0c\x1b\x1f\x7f\t\n\r\ud800\ufffe\uffff"), max_size=4)


def _values(names, numbers):
    return st.recursive(
        st.one_of(st.booleans(), st.none(), st.sampled_from(names), TEXT, numbers),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(names), inner, max_size=2),
        max_leaves=4,
    )


@st.composite
def _edit(draw, doc, names, numbers):
    """`doc` with one node replaced, retyped or deleted, or with a key added."""
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return draw(_values(names, numbers)) if draw(st.integers(0, 4)) == 0 else doc
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    action = draw(st.sampled_from(["replace", "number", "delete", "add"]))
    if action == "replace":
        node[last] = draw(_values(names, numbers))
    elif action == "number":
        node[last] = draw(numbers)
    elif action == "delete":
        del node[last]
    elif isinstance(node, dict):
        node[draw(st.sampled_from(names))] = draw(_values(names, numbers))
    else:
        node.append(draw(_values(names, numbers)))
    return doc


@st.composite
def edited(draw, base, numbers):
    names = sorted(set(_strings(base)) | {"ZZ"})
    doc = base
    for _ in range(draw(st.integers(1, 2))):
        doc = draw(_edit(doc, names, numbers))
    return doc


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _check(argv, path, out):
    """Run a command on the document at `path`: it exits 0 and writes `out`,
    or exits 1 with one `error:` line naming `path` and writes nothing."""
    code, stdout, err = _run(argv)
    assert "Traceback" not in err
    if code == 0:
        event("accepted")
        assert err == "" and out.exists()
    else:
        event("rejected")
        assert code == 1 and stdout == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {path}: ")
        assert not out.exists()


# payload numbers: small and large, negative, float, and an integer that
# overflows a float
PAYLOAD_NUMBERS = st.one_of(
    st.integers(-3, 3), st.integers(), st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 0.5, 1.0, -4.0, 1e308, 10**400]),
)


@pytest.mark.parametrize("kind", PAYLOADS)
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_payload_renders_or_fails_cleanly(kind, data):
    doc = data.draw(edited(PAYLOADS[kind], PAYLOAD_NUMBERS))
    title = data.draw(st.none() | TEXT)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "payload.json", Path(tmp) / "figure.svg"
        path.write_text(json.dumps(doc), encoding="utf-8")
        _check(["plot", "--kind", kind, "--in", path, "--out", out] + ([f"--title={title}"] if title else []), path, out)
        if out.exists():
            ElementTree.parse(out)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """100 rows in which four classes hold 0 or 1 row: a plan may ask to grow
    a class that SMOTENC and the CGAN cannot learn from."""
    table = synthesize_corpus(default_synthesis_spec(), 100, seed=2)
    path = tmp_path_factory.mktemp("corpus") / "tw.csv"
    save_csv(table, path)
    return path, class_histogram(table)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_plan_augments_or_fails_cleanly(small_corpus, data):
    src, counts = small_corpus
    base = {
        "stage1": {c: n + 3 if n >= 2 else n for c, n in counts.items()},
        "stage2": {c: n + 6 if n >= 2 else n for c, n in counts.items()},
    }
    # a target lies within [-2, largest count + 40] or just above the plan
    # bound, which is rejected before any row is allocated
    top = max(counts.values()) + 40
    doc = data.draw(edited(base, st.integers(-2, top) | st.floats(-2, top) | st.just(MAX_PLAN_ROWS + 1)))
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "plan.json", Path(tmp) / "tws.csv"
        path.write_text(json.dumps(doc), encoding="utf-8")
        _check(["augment", "--in", src, "--plan", path, "--epochs", 1, "--out", out], path, out)
