import pytest

from twkit import default_schema, default_synthesis_spec, synthesize_corpus
from twkit.jsonio import write_json


@pytest.fixture(scope="session")
def schema():
    return default_schema()


@pytest.fixture(scope="session")
def corpus_200():
    return synthesize_corpus(default_synthesis_spec(), 200, seed=42)


@pytest.fixture(scope="session")
def corpus_1087():
    return synthesize_corpus(default_synthesis_spec(), 1087, seed=7)


def _dist_doc(dist):
    return {str(code): p for code, p in dist.items()}


@pytest.fixture(scope="session")
def write_spec():
    """A function that writes a synthesis spec as the document `synth --spec`
    and `load_spec` read: codes as strings, heights as [mean, sigma]."""

    def write(spec, path):
        write_json(path, {
            "class_weights": _dist_doc(spec.class_weights),
            "conditionals": {
                attr: {str(cls): _dist_doc(dist) for cls, dist in per_class.items()}
                for attr, per_class in spec.conditionals.items()
            },
            "height_model": {str(cls): list(ms) for cls, ms in spec.height_model.items()},
            "couplings": [
                {"target": c.target, "source": c.source,
                 "mapping": {str(src): _dist_doc(d) for src, d in c.mapping.items()}}
                for c in spec.couplings
            ],
        })

    return write
