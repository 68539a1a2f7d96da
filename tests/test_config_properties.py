"""Property tests at the pipeline-config boundary: a config document either
loads with every field of its declared type, or is one data error naming the
file, which `twkit pipeline --config` reports as exit 1 with one `error:` line
and no output directory."""

import contextlib
import dataclasses
import io
import json
import tempfile
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from twkit.cli import PipelineConfig, main
from twkit.errors import DataError

COUNTS = ("n_rows", "bench_rows", "gain_epochs", "cgan_epochs")
NAME_LISTS = ("features", "methods", "classifiers")
# the protocol values that are constants, not fields, then other unknown keys
OTHER_KEYS = ("rate", "test_fraction", "total", "smote_cap", "gain_alpha", "gain_hidden", "box_panels",
              "seed", "stages", "", "N_ROWS", "from_file")

VALUES = st.recursive(
    st.one_of(
        st.integers(-3, 3), st.integers(), st.booleans(), st.none(),
        st.floats(allow_nan=False), st.sampled_from([1.0, 2.5, 0.0]), st.text(max_size=5),
    ),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=6,
)


def _expected_valid(doc) -> bool:
    """Whether a config document should load, written independently of twkit."""
    if not isinstance(doc, dict):
        return False
    for key, value in doc.items():
        if key in COUNTS:
            if type(value) is not int or value < 1:
                return False
        elif key in NAME_LISTS:
            if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                return False
        else:
            return False
    return True


@st.composite
def config_document(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(VALUES)  # not an object at all
    keys = draw(st.lists(st.sampled_from(COUNTS + NAME_LISTS), max_size=4, unique=True))
    keys += draw(st.lists(st.sampled_from(OTHER_KEYS), max_size=1))
    doc = {}
    for key in keys:
        well_typed = draw(st.integers(0, 3)) > 0
        if key in COUNTS and well_typed:
            doc[key] = draw(st.integers(1, 10**6))
        elif key in NAME_LISTS and well_typed:
            doc[key] = draw(st.lists(st.text(max_size=8), max_size=3))
        else:
            doc[key] = draw(VALUES)
    return doc


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(config_document())
def test_config_loads_typed_or_fails_cleanly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            config = PipelineConfig.from_file(path)
        except DataError as exc:
            event("data error")
            assert not _expected_valid(doc)
            assert str(path) in str(exc)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["pipeline", "--config", str(path), "--out", str(out)])
            assert code == 1
            assert len(err.getvalue().splitlines()) == 1
            assert err.getvalue().startswith("error: ") and str(path) in err.getvalue()
            assert not out.exists()
            return
    event("loads")
    assert _expected_valid(doc)
    defaults = PipelineConfig()
    for field in dataclasses.fields(PipelineConfig):
        value = getattr(config, field.name)
        if field.name in COUNTS:
            assert type(value) is int and value >= 1
        else:
            assert field.name in NAME_LISTS
            assert isinstance(value, tuple) and all(isinstance(v, str) for v in value)
        want = doc.get(field.name, getattr(defaults, field.name))
        assert value == (tuple(want) if field.name in NAME_LISTS else want)


def test_fields_are_the_counts_and_name_lists():
    assert tuple(f.name for f in dataclasses.fields(PipelineConfig)) == (
        "n_rows", "bench_rows", "features", "methods", "classifiers", "gain_epochs", "cgan_epochs"
    )


def test_benchmark_config_loads(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"gain_epochs": 120, "cgan_epochs": 25}), encoding="utf-8")
    config = PipelineConfig.from_file(path)
    assert (config.gain_epochs, config.cgan_epochs) == (120, 25)
