"""Every top-level function and class in `src/twkit`, and every method and
property of its classes, is used by the program.

A definition counts as used when a top-level statement other than its own
refers to it, in any `src/twkit` module or in a `perfbench/` script. The
package `__init__.py` only re-exports names, so it does not count.
`perfbench/tracer.py` patches functions and model classes by name, so a
string naming a definition counts there. A method or property is reached
through an attribute, so it counts as used when code outside its own
definition refers to an attribute of its name (or a `perfbench/` string names
it); Python itself calls the dunder methods. No module records, filters or
replays warnings, which would swap process-wide state.

The benchmark's tracer also reads the tree layout (`TreeNode.left`/`.right`)
of the trees `train_tree` returns, and only of those. Each is a view of the
root of a one-tree `Forest` store, and its children are views of that store
too; a forest's trees grow inside `train_forest` and never pass through
`train_tree`. The tracer wraps `train_tree`, `train_forest` and each model's
`predict_proba` by name. The tracer contract test runs it around one
decision-tree fit and one random-forest fit, so a change that breaks what it
reads fails here before a benchmark run does. The workload setup test does
the same for the library calls `perfbench/workloads.py` makes to build its
inputs, the forest and repair workload tests pin the artifacts one pass of
each writes, and the decision-tree test pins the two `train --model dt`
reports on the forest workload's input.
"""

import ast
import dataclasses
import hashlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

import twkit.cli
from twkit.classify import CLASSIFIERS, fit_and_score
from twkit.encoding import build_codec
from twkit.table import split_stratified

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [p for p in sorted((ROOT / "src" / "twkit").glob("*.py")) if p.name != "__init__.py"]
SCRIPTS = sorted((ROOT / "perfbench").glob("*.py"))

# Definitions allowed to have no caller in the program, each with its reason.
EXEMPT: set[str] = set()


def _statements(path: Path, strings: bool):
    """(top-level statement, the names it refers to) for each statement."""
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
        yield stmt, names


def test_every_definition_is_referenced():
    statements = [(p, s, names) for p in SOURCES for s, names in _statements(p, strings=False)]
    statements += [(p, s, names) for p in SCRIPTS for s, names in _statements(p, strings=True)]
    unused = [
        f"{path.name}:{stmt.lineno} {stmt.name}"
        for path, stmt, _ in statements
        if path in SOURCES
        and isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and stmt.name not in EXEMPT
        and not any(stmt.name in names for _, other, names in statements if other is not stmt)
    ]
    assert not unused, f"definitions nothing in the program uses: {unused}"


def _attribute_units(path: Path, strings: bool):
    """(top-level statement, part, the attribute names the part refers to),
    where a class's parts are the statements of its body, its decorators and
    its bases, and any other statement is its own one part."""
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        parts = stmt.body + stmt.decorator_list + stmt.bases if isinstance(stmt, ast.ClassDef) else [stmt]
        for part in parts:
            names = set()
            for node in ast.walk(part):
                if isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
            yield stmt, part, names


def test_every_method_is_referenced():
    units = [(p, cls, part, names) for p in SOURCES for cls, part, names in _attribute_units(p, strings=False)]
    units += [(p, cls, part, names) for p in SCRIPTS for cls, part, names in _attribute_units(p, strings=True)]
    unused = [
        f"{path.name}:{part.lineno} {cls.name}.{part.name}"
        for path, cls, part, _ in units
        if path in SOURCES
        and isinstance(cls, ast.ClassDef)
        and isinstance(part, ast.FunctionDef)
        and not (part.name.startswith("__") and part.name.endswith("__"))
        and not any(part.name in names for _, _, other, names in units if other is not part)
    ]
    assert not unused, f"methods and properties nothing in the program uses: {unused}"


def test_no_module_captures_or_replays_warnings():
    # warning filters are process-wide state: the library warns, and only its
    # callers filter, record or replay
    names = ("catch_warnings", "warn_explicit", "simplefilter", "filterwarnings")
    used = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "twkit").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)) in names
    ]
    assert not used, f"warning state touched in the library: {used}"


def _load_script(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _twkit_namespaces():
    """Every twkit module namespace and class namespace, with the classifier
    registry: all the places the tracer may patch."""
    spaces = {"CLASSIFIERS": CLASSIFIERS}
    for name, module in sorted(sys.modules.items()):
        if name.startswith("twkit."):
            spaces[name] = vars(module)
            for cls_name, cls in vars(module).items():
                if inspect.isclass(cls) and cls.__module__ == name:
                    spaces[f"{name}.{cls_name}"] = vars(cls)
    return spaces


def _node_count_and_depth(node, depth=0):
    if node.is_leaf:
        return 1, depth
    left_nodes, left_depth = _node_count_and_depth(node.left, depth + 1)
    right_nodes, right_depth = _node_count_and_depth(node.right, depth + 1)
    return 1 + left_nodes + right_nodes, max(left_depth, right_depth)


def test_tracer_contract(corpus_200, schema):
    tracer_module = _load_script("tracer")
    train, test = split_stratified(corpus_200, 0.25, seed=1)
    codec = build_codec(train, attributes=tuple(a.name for a in schema.features))
    before = {key: dict(space) for key, space in _twkit_namespaces().items()}

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        _, dt = fit_and_score("dt", train, test, codec, seed=3)
        _, forest = fit_and_score("rf", train, test, codec, seed=3)
    finally:
        tracer.uninstall()

    # a forest grows its trees in lockstep inside train_forest, so only the
    # decision tree passes through train_tree
    names = [span[tracer_module.NAME] for span in tracer.spans]
    assert names.count("classify.train_tree") == 1
    assert names.count("classify.train_forest") == 1
    assert len(forest.trees) > 1
    assert len(tracer.trees) == 1 and tracer.trees[0] is dt.tree
    assert "classify.predict_proba" in names
    direct = _node_count_and_depth(dt.tree)
    assert tracer_module.tree_shape(tracer.trees) == direct
    assert direct[0] > 1

    after = _twkit_namespaces()
    assert after.keys() == before.keys()
    for key, space in after.items():
        changed = [name for name in space.keys() | before[key].keys()
                   if space.get(name, None) is not before[key].get(name, None)]
        assert not changed, f"{key}: not restored: {changed}"


# what each workload's setup writes into its inputs directory
WORKLOAD_INPUTS = {
    "pipeline": ("pipeline.json",),
    "forest": ("forest.csv",),
    "repair": ("truth.csv", "missing.csv"),
}


@pytest.mark.parametrize("name", sorted(WORKLOAD_INPUTS))
def test_benchmark_workload_setup(name, tmp_path, schema):
    # the benchmark's inputs come from `inject_missing`'s (table, grid) pair,
    # `class_histogram`'s dict, `default_augment_plan` and `synthesize_corpus`
    # without a schema; setup fails here if one of them changes shape
    workloads = _load_script("workloads")
    workload = workloads.WORKLOADS[name]
    workload.setup(twkit, 7, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(WORKLOAD_INPUTS[name])
    if name == "pipeline":
        assert json.loads((tmp_path / "pipeline.json").read_text(encoding="utf-8"))
        assert workload.seed >= 7
        return
    for csv_name in WORKLOAD_INPUTS[name]:
        table, origins = twkit.load_augmented_csv(tmp_path / csv_name, schema)
        assert len(table) > 0 and origins is None
    if name == "repair":
        missing, _ = twkit.load_augmented_csv(tmp_path / "missing.csv", schema)
        blank = {a.name for a in schema.attributes if None in missing.column(a.name)}
        assert blank == set(workloads.REPAIR_FEATURES)


def test_formats_doc_lists_the_pipeline_config_fields():
    """docs/formats.md is where users learn the config fields: its table
    names every `PipelineConfig` field, in order, with its default."""
    text = (ROOT / "docs" / "formats.md").read_text(encoding="utf-8")
    section = text.split("## Pipeline config (`pipeline --config`)", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:-1] for line in section.splitlines() if line.startswith("| `")]
    documented = [(name.strip().strip("`"), json.loads(default.strip().strip("`"))) for name, *_, default in rows]
    defaults = twkit.cli.PipelineConfig()
    expected = []
    for field in dataclasses.fields(defaults):
        value = getattr(defaults, field.name)
        expected.append((field.name, list(value) if isinstance(value, tuple) else value))
    assert documented == expected


# sha256 of what one `forest` workload pass writes at seed 7
FOREST_SEED_7_SHA256 = {
    "cv.json": "1acaa33767169cd1a3627819fca8fab9d84330bdd10276f2aee5bc50aaa08737",
    "importance.json": "ae6f7b28165e6e1c0690fe4b4fc6efed784ed1fdc2bf163dc2bb4c15be3b1957",
}


def _run_workload(name, tmp_path):
    """Set up and run one benchmark workload at seed 7 in-process, through
    the CLI as perfbench/run.py runs it, checking each command's outputs.
    Returns the directory they were written to."""
    workload = _load_script("workloads").WORKLOADS[name]
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    workload.setup(twkit, 7, inputs)
    for command in workload.commands(7, inputs, out):
        assert twkit.cli.main(command.argv) == 0, command.argv
        command.check(out)
    return out


def test_forest_workload_artifacts(tmp_path):
    # the benchmark's forest workload at seed 7: six forests, their
    # predictions and one importance ranking, each byte-pinned
    out = _run_workload("forest", tmp_path)
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in FOREST_SEED_7_SHA256}
    assert digests == FOREST_SEED_7_SHA256


# sha256 of the reports `train --model dt --seed 7` writes on the forest
# workload's seed-7 input, with five folds and with one split
DT_SEED_7_SHA256 = {
    "dt-folds.json": "42c697eb6112b04b98ff09c00f466c5cb0cd40148b730174e31ff2554d91c266",
    "dt-split.json": "a3f67d9fff14bdd1f396be2f18ccb1b0472a752868af098cd4bba18fb42e75ee",
}


def test_decision_tree_reports(tmp_path):
    # the single tree's two `train` reports on the forest workload's input,
    # run in-process as the workloads are, each byte-pinned
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    _load_script("workloads").WORKLOADS["forest"].setup(twkit, 7, inputs)
    for name, extra in (("dt-folds.json", ["--folds", "5"]), ("dt-split.json", [])):
        argv = ["train", "--in", str(inputs / "forest.csv"), "--model", "dt", "--seed", "7", *extra,
                "--report", str(tmp_path / name)]
        assert twkit.cli.main(argv) == 0, argv
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in DT_SEED_7_SHA256}
    assert digests == DT_SEED_7_SHA256


# sha256 of what one `repair` workload pass writes at seed 7
REPAIR_SEED_7_SHA256 = {
    "sta.csv": "ea24b6e52b3b70e78787884513365fb22b73a9a74e7a78792866eb6b69ca4561",
    "mice.csv": "9585b1709d574fc4530293f2d3ca00a7a821cb405c69aa052c37e8057b636e6a",
    "corr.json": "e542a39613bd13bff371f0d48a6b64986292d3550b16e9f9a581aaaac1b9e242",
    "stats.json": "b00d9506d2c09db6eb191b4b654d25ec358c12cadf390a1d08027f95ee72c6ae",
    "box.svg": "001efa3aa98aa157dc472672337ff8c6bc9ca9885f1fc19c08d78ed4325cae70",
    "violin.svg": "ca8956a62b06a96bb7a4d01f8de12a6ffe35e91c550c49764f6e61b4d3f75b5d",
    "heatmap.svg": "48da6fef884098300e38e23f76ceab0b7f04b017ead779c0cb8b897f40add5b9",
}


def test_repair_workload_artifacts(tmp_path):
    # the benchmark's repair workload at seed 7: STA and MICE repair of
    # 3,000 rows, then correlation, statistics and three figures, each
    # byte-pinned
    out = _run_workload("repair", tmp_path)
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in REPAIR_SEED_7_SHA256}
    assert digests == REPAIR_SEED_7_SHA256
