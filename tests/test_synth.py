import numpy as np
import pytest

from twkit import default_synthesis_spec, synthesize_corpus
from twkit.analyze import contingency, cramers_v
from twkit.errors import DataError
from twkit.synth import SynthesisSpec, load_spec
from twkit.table import class_histogram

REF = {"RW": 396, "AW": 633, "CS": 8, "CT": 8, "HR": 5, "MR": 10, "LR": 27}


def test_single_row(schema):
    table = synthesize_corpus(default_synthesis_spec(), 1, seed=0)
    assert len(table) == 1
    assert table.rows[0][schema.label_index] in schema.class_codes


def test_histogram_matches_reference_proportions(corpus_1087):
    hist = class_histogram(corpus_1087)
    for cls, count in REF.items():
        assert abs(hist[cls] - count) / 1087 <= 0.02, (cls, hist[cls])


def test_deterministic():
    spec = default_synthesis_spec()
    a = synthesize_corpus(spec, 300, seed=5)
    b = synthesize_corpus(spec, 300, seed=5)
    assert a.rows == b.rows
    c = synthesize_corpus(spec, 300, seed=6)
    assert c.rows != a.rows


def test_convergence_at_10k():
    table = synthesize_corpus(default_synthesis_spec(), 10_000, seed=20)
    hist = class_histogram(table)
    for cls, count in REF.items():
        assert abs(hist[cls] / 10_000 - count / 1087) <= 0.01, cls


def test_coupling_forces_association():
    table = synthesize_corpus(default_synthesis_spec(), 5000, seed=3)
    assert cramers_v(contingency(table, "corps", "position")) >= 0.9
    assert cramers_v(contingency(table, "headgear", "hairstyle")) >= 0.8


def test_mean_height_near_178(corpus_1087, schema):
    heights = [row[schema.index_of("height")] for row in corpus_1087.rows]
    assert abs(np.mean(heights) - 178.0) <= 2.0


def test_rows_schema_valid(corpus_1087, schema):
    # Table construction validates; spot-check coupling determinism
    i_corps = schema.index_of("corps")
    i_pos = schema.index_of("position")
    for row in corpus_1087.rows:
        if row[i_corps] == 0:
            assert row[i_pos] == 2


def test_malformed_spec_rejected(schema):
    spec = default_synthesis_spec()
    bad_weights = dict(spec.class_weights)
    bad_weights["RW"] += 0.1
    with pytest.raises(DataError):
        SynthesisSpec(bad_weights, spec.conditionals, spec.height_model, spec.couplings).validate(schema)
    missing = {k: v for k, v in spec.class_weights.items() if k != "HR"}
    with pytest.raises(DataError):
        SynthesisSpec(missing, spec.conditionals, spec.height_model, spec.couplings).validate(schema)


def test_negative_height_sigma_rejected(schema):
    spec = default_synthesis_spec()
    heights = {**spec.height_model, "RW": (178.0, -4.0)}
    bad = SynthesisSpec(spec.class_weights, spec.conditionals, heights, spec.couplings)
    with pytest.raises(DataError, match=r"^height_model 'RW': sigma must be >= 0, got -4.0$"):
        bad.validate(schema)
    with pytest.raises(DataError, match=r"^height_model 'RW': sigma must be >= 0, got -4.0$"):
        synthesize_corpus(bad, 10, seed=1)


def test_n_must_be_positive():
    with pytest.raises(DataError):
        synthesize_corpus(default_synthesis_spec(), 0, seed=1)


def test_json_round_trip(tmp_path, schema, write_spec):
    spec = default_synthesis_spec()
    path = tmp_path / "spec.json"
    write_spec(spec, path)
    back = load_spec(path, schema)
    assert back.class_weights == spec.class_weights
    assert back.conditionals == spec.conditionals
    assert back.height_model == spec.height_model
    assert back.couplings == spec.couplings
    a = synthesize_corpus(spec, 50, seed=2)
    b = synthesize_corpus(back, 50, seed=2)
    assert a.rows == b.rows
