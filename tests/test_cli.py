import json
import warnings
import xml.etree.ElementTree as ET

import pytest

from twkit.cli import main
from twkit.metrics import AbsentClassWarning
from twkit.table import class_histogram, load_augmented_csv


def run(argv):
    return main([str(a) for a in argv])


def test_synth_writes_rows(tmp_path, schema):
    out = tmp_path / "tw.csv"
    assert run(["synth", "--n", 200, "--seed", 7, "--out", out]) == 0
    table, _ = load_augmented_csv(out, schema)
    assert len(table) == 200


def test_synth_with_spec_file(tmp_path, schema, write_spec):
    from twkit.synth import default_synthesis_spec

    spec_path = tmp_path / "spec.json"
    write_spec(default_synthesis_spec(), spec_path)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert run(["synth", "--n", 50, "--seed", 3, "--out", out_a]) == 0
    assert run(["synth", "--n", 50, "--seed", 3, "--spec", spec_path, "--out", out_b]) == 0
    assert out_a.read_text() == out_b.read_text()


def test_impute_sta_round_trip(tmp_path, schema, corpus_200):
    from twkit.table import inject_missing, save_csv

    injected, _ = inject_missing(corpus_200, ["headgear"], 0.3, seed=1)
    src = tmp_path / "missing.csv"
    save_csv(injected, src)
    out = tmp_path / "fixed.csv"
    assert run(["impute", "--method", "sta", "--in", src, "--out", out]) == 0
    table, _ = load_augmented_csv(out, schema)
    assert table.is_complete()


def test_impute_complete_passthrough(tmp_path, schema, corpus_200):
    from twkit.table import save_csv

    src = tmp_path / "full.csv"
    save_csv(corpus_200, src)
    out = tmp_path / "out.csv"
    assert run(["impute", "--method", "gain", "--in", src, "--out", out, "--epochs", "5"]) == 0
    table, _ = load_augmented_csv(out, schema)
    assert table.rows == corpus_200.rows


def test_missing_file_is_data_error(tmp_path):
    code = run(["impute", "--method", "sta", "--in", tmp_path / "nope.csv", "--out", tmp_path / "x.csv"])
    assert code == 1


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["impute", "--method", "bogus", "--in", "x", "--out", "y"])
    assert exc.value.code == 2


def test_augment_train_correlate_stats_plot_chain(tmp_path, schema):
    from twkit import default_synthesis_spec, synthesize_corpus
    from twkit.table import save_csv

    corpus = synthesize_corpus(default_synthesis_spec(), 400, seed=8)
    src = tmp_path / "tw.csv"
    save_csv(corpus, src)

    # augment with an explicit small plan
    from twkit.augment import default_augment_plan

    counts = class_histogram(corpus)
    plan = default_augment_plan(counts, schema.class_codes, total=600, smote_cap=50)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan.to_dict()), encoding="utf-8")
    tws = tmp_path / "tws.csv"
    assert run(["augment", "--in", src, "--plan", plan_path, "--out", tws,
                "--seed", 3, "--epochs", 20]) == 0
    augmented, origins = load_augmented_csv(tws, schema)
    assert len(augmented) == 600
    assert origins is not None and origins[0] == "real"

    report = tmp_path / "metrics.json"
    assert run(["train", "--model", "rf", "--in", tws, "--report", report, "--seed", 5]) == 0
    metrics = json.loads(report.read_text())
    assert 0.0 <= metrics["accuracy"] <= 1.0
    importance = tmp_path / "importance.json"
    assert run(["importance", "--in", tws, "--out", importance, "--seed", 5]) == 0
    imp = json.loads(importance.read_text())["importance"]
    assert abs(sum(w for _, w in imp) - 1.0) < 1e-9

    corr = tmp_path / "corr.json"
    assert run(["correlate", "--in", tws, "--out", corr]) == 0
    doc = json.loads(corr.read_text())
    assert len(doc["attributes"]) == 9

    stats = tmp_path / "stats.json"
    assert run(["stats", "--in", tws, "--attrs", "headgear,height", "--out", stats]) == 0
    stats_doc = json.loads(stats.read_text())
    assert len(stats_doc["panels"]) == 2

    for kind, payload in (("importance", importance), ("box", stats), ("violin", stats), ("heatmap", corr)):
        fig = tmp_path / f"{kind}.svg"
        assert run(["plot", "--kind", kind, "--in", payload, "--out", fig]) == 0
        root = ET.fromstring(fig.read_text())
        assert root.tag.endswith("svg")


def test_heatmap_cell_texts_match_json(tmp_path, schema):
    from twkit import default_synthesis_spec, synthesize_corpus
    from twkit.table import save_csv

    corpus = synthesize_corpus(default_synthesis_spec(), 300, seed=19)
    src = tmp_path / "tw.csv"
    save_csv(corpus, src)
    corr = tmp_path / "corr.json"
    run(["correlate", "--in", src, "--out", corr])
    fig = tmp_path / "heat.svg"
    run(["plot", "--kind", "heatmap", "--in", corr, "--out", fig])
    doc = json.loads(corr.read_text())
    svg = fig.read_text()
    for row in doc["matrix"]:
        for value in row:
            assert f">{value:.2f}<" in svg


def test_train_with_folds(tmp_path, schema):
    from twkit import default_synthesis_spec, synthesize_corpus
    from twkit.table import save_csv

    corpus = synthesize_corpus(default_synthesis_spec(), 300, seed=19)
    src = tmp_path / "tw.csv"
    save_csv(corpus, src)
    report = tmp_path / "cv.json"
    with pytest.warns(AbsentClassWarning, match=r"^classes absent from truth, excluded from macro AUC: 'CT', 'HR'$"):
        assert run(["train", "--model", "dt", "--in", src, "--report", report,
                    "--folds", 3, "--seed", 2]) == 0
    doc = json.loads(report.read_text())
    assert len(doc["folds"]) == 3
    assert 0.0 <= doc["mean_accuracy"] <= 1.0


@pytest.mark.parametrize("argv", [
    ["train", "--folds", 1],
    ["train", "--folds", -2],
    ["train", "--test-fraction", 0],
    ["train", "--test-fraction", 1.5],
    ["importance", "--test-fraction", 1],
])
def test_train_range_errors_are_usage_errors(tmp_path, corpus_200, argv):
    from twkit.table import save_csv

    src = tmp_path / "tw.csv"
    save_csv(corpus_200, src)
    report = tmp_path / "report.json"
    out_flag = "--report" if argv[0] == "train" else "--out"
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--in", src, out_flag, report])
    assert exc.value.code == 2
    assert not report.exists()


@pytest.mark.parametrize("argv", [
    ["train", "--report"],
    ["train", "--folds", 3, "--report"],
    ["importance", "--out"],
    ["eval-impute", "--methods", "sta", "--classifiers", "dt", "--out"],
], ids=["train", "train-folds", "importance", "eval-impute"])
def test_missing_class_label_exits_1(tmp_path, capsys, corpus_200, argv):
    from twkit.table import save_csv

    label = corpus_200.schema.label_index
    rows = list(corpus_200.rows)
    rows[7] = rows[7][:label] + (None,) + rows[7][label + 1:]
    src = tmp_path / "tw.csv"
    save_csv(corpus_200.replace_rows(rows), src)
    out = tmp_path / "report.json"
    assert run([*argv[:-1], "--in", src, argv[-1], out]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: 1 row(s) have no class label")
    assert not out.exists()


def test_pipeline_failure_writes_partial_manifest(tmp_path, capsys):
    # an unknown attribute or the class label as an injected feature fails the
    # eval stage after synth completed
    for features, named in ((["no_such_attribute"], "'no_such_attribute'"), (["height", "tw_class"], "'tw_class'")):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_rows": 60, "bench_rows": 60, "features": features}), encoding="utf-8")
        out = tmp_path / named.strip("'")
        code = run(["pipeline", "--out", out, "--seed", 3, "--config", config])
        assert code == 1
        assert named in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stages_completed"] == ["synth"]
        assert [a["path"] for a in manifest["artifacts"]] == ["tw.csv"]


def test_pipeline_with_no_classifiers_exits_1(tmp_path, capsys):
    # the mean difference over no classifiers is NaN, which imputation.json cannot hold
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_rows": 60, "bench_rows": 60, "classifiers": []}), encoding="utf-8")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["pipeline", "--out", out, "--seed", 3, "--config", config]) == 1
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "no classifiers" in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stages_completed"] == ["synth"]
    assert [a["path"] for a in manifest["artifacts"]] == ["tw.csv"]
    assert not (out / "reports" / "imputation.json").exists()


def test_non_finite_report_exits_1(tmp_path, capsys):
    # a 0.03 test fraction of 30 rows (20 AW, 10 RW) holds out one AW row,
    # whose macro AUC would be NaN; the metrics reject it before any report
    src, report = tmp_path / "tw.csv", tmp_path / "report.json"
    assert run(["synth", "--n", 30, "--seed", 3, "--out", src]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["train", "--in", src, "--model", "dt", "--test-fraction", 0.03, "--report", report])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: macro AUC needs truth rows of two classes or more, got 'AW'"]
    assert not report.exists()


def test_empty_fold_exits_1(tmp_path, capsys, schema):
    # two rows of each of two classes dealt into three folds leave the last
    # fold's test rows empty, which fails before any fold is fitted or scored
    from twkit.table import save_csv

    src, report = tmp_path / "tw.csv", tmp_path / "report.json"
    assert run(["synth", "--n", 30, "--seed", 3, "--out", src]) == 0
    table, _ = load_augmented_csv(src, schema)
    rows = [r for c in ("AW", "RW") for r in [r for r in table.rows if r[schema.label_index] == c][:2]]
    save_csv(table.replace_rows(rows), src)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["train", "--in", src, "--model", "dt", "--folds", 3, "--report", report])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: macro AUC needs truth rows of two classes or more, got none"]
    assert not report.exists()


def test_empty_test_split_exits_1(tmp_path, capsys):
    # a 0.01 test fraction of 30 rows holds out no row; nothing is fitted
    src, report = tmp_path / "tw.csv", tmp_path / "report.json"
    assert run(["synth", "--n", 30, "--seed", 3, "--out", src]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["train", "--in", src, "--model", "dt", "--test-fraction", 0.01, "--report", report])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: test_fraction 0.01 leaves no test rows in 30 rows"]
    assert not report.exists()


def test_eval_impute_repeated_names_exit_1(tmp_path, capsys, corpus_200):
    from twkit.table import save_csv

    src = tmp_path / "tw.csv"
    save_csv(corpus_200, src)
    out = tmp_path / "report.json"
    for argv in (["--methods", "sta,sta", "--classifiers", "dt"], ["--methods", "sta", "--classifiers", "dt,dt"]):
        assert run(["eval-impute", "--in", src, *argv, "--out", out]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: each ") and "may be named once" in err
        assert not out.exists()


def test_pipeline_config_rejects_unknown_keys(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"not_a_real_knob": 1}), encoding="utf-8")
    code = run(["pipeline", "--out", tmp_path / "out", "--seed", 3, "--config", config])
    assert code == 1


_BOX = {"q1": 1.0, "median": 2.0, "q3": 3.0, "whisker_low": 0.0, "whisker_high": 4.0, "outliers": []}
_NOT_UTF8 = b'{"stage1": "\xff"}'


@pytest.mark.parametrize("command, document", [
    ("box", {"classes": ["RW"], "panels": [{"attribute": "height", "violin": {"RW": _BOX}}]}),
    ("box", {"classes": ["RW", "HR"], "panels": [{"attribute": "height", "box": {"RW": _BOX}}]}),
    ("violin", {"classes": ["RW"], "panels": [{"attribute": "height", "violin": {"RW": {
        "grid": [], "density": [], "q1": 1.0, "median": 1.0, "q3": 1.0, "min": 1.0, "max": 1.0}}}]}),
    ("importance", {"importance": [["height"]]}),
    ("importance", {"importance": [["height", "heavy"]]}),
    ("importance", [["height", 0.5]]),
    ("heatmap", {"attributes": ["a", "b"], "matrix_full_precision": [[1.0, 0.2], [0.2]]}),
    ("augment", {"stage1": {"RW": 10}}),
    ("augment", {"stage1": ["RW"], "stage2": {}}),
    ("augment", {"stage1": {"RW": "ten"}, "stage2": {}}),
    ("augment", {"stage1": {"ZZ": 10}, "stage2": {}}),
    # synthesis specs: edits of the default spec's document
    ("synth", lambda d: {k: v for k, v in d.items() if k != "height_model"}),
    ("synth", lambda d: {**d, "class_weights": list(d["class_weights"].values())}),
    ("synth", lambda d: [d]),
    ("synth", lambda d: {**d, "height_model": {**d["height_model"], "RW": [178]}}),
    ("synth", lambda d: {**d, "class_weights": {c: str(p) for c, p in d["class_weights"].items()}}),
    ("synth", lambda d: {**d, "height_model": {**d["height_model"], "RW": ["178.5", 4.0]}}),
    ("synth", lambda d: {**d, "height_model": {**d["height_model"], "RW": [178.5, True]}}),
    ("synth", lambda d: {**d, "height_model": {**d["height_model"], "RW": [178.5, -4.0]}}),
    ("synth", lambda d: {**d, "height_model": {**d["height_model"], "RW": [178.5, 4.0, 9]}}),
    ("synth", lambda d: {**d, "conditionals": {**d["conditionals"], "weapon": {
        **d["conditionals"]["weapon"], "HR": {"2": True}}}}),
    ("synth", lambda d: {**d, "couplings": [{**d["couplings"][0], "source": "hairstyle"}, d["couplings"][1]]}),
    ("pipeline", {"features": 5}),
    ("pipeline", [1]),
    ("pipeline", {"n_rows": "50"}),
    ("pipeline", {"gain_epochs": 12.5}),
    ("pipeline", {"stages": ["synth"]}),
    ("pipeline", {"bench_rows": 0}),
    ("pipeline", {"n_rows": -5}),
    ("pipeline", {"smote_cap": 10}),
    ("box", _NOT_UTF8),
    ("augment", _NOT_UTF8),
    ("synth", _NOT_UTF8),
    ("pipeline", _NOT_UTF8),
    ("importance", b'{"importance": [["a", Infinity], ["b", 0.5]]}'),
    ("heatmap", b'{"attributes": ["a"], "matrix_full_precision": [[Infinity]]}'),
    ("box", json.dumps({"classes": ["RW"], "panels": [{"attribute": "height", "box": {"RW": {
        **_BOX, "q1": float("inf")}}}]}).encode()),
    ("augment", b'{"stage1": {"RW": -Infinity}, "stage2": {}}'),
    ("impute", b"height\n\xff\n"),
    ("impute", b"height\n" + b"1" * 131073 + b"\n"),
], ids=[
    "box-panel-without-box", "box-class-missing", "violin-empty-grid", "importance-one-element-pair",
    "importance-text-weight", "importance-not-an-object", "heatmap-ragged-matrix", "plan-without-stage2",
    "plan-stage1-list", "plan-text-target", "plan-undeclared-class", "spec-without-height-model", "spec-class-weights-list",
    "spec-top-level-array", "spec-short-height-entry", "spec-text-probability", "spec-text-height-mean",
    "spec-bool-height-sigma", "spec-negative-height-sigma", "spec-long-height-entry", "spec-bool-probability",
    "spec-coupling-source-drawn-later",
    "config-features-number",
    "config-top-level-array", "config-text-int", "config-float-count", "config-stages-unknown",
    "config-zero-count", "config-negative-rows", "config-deleted-key",
    "plot-not-utf8", "plan-not-utf8", "spec-not-utf8", "config-not-utf8",
    "importance-infinite-weight", "heatmap-infinite-cell", "box-infinite-q1", "plan-negative-infinite-target",
    "csv-not-utf8", "csv-field-over-limit",
])
def test_malformed_document_exits_1(tmp_path, capsys, corpus_200, write_spec, command, document):
    from twkit.synth import default_synthesis_spec
    from twkit.table import save_csv

    doc_path = tmp_path / "doc"
    if callable(document):
        write_spec(default_synthesis_spec(), doc_path)
        document = document(json.loads(doc_path.read_text(encoding="utf-8")))
    if isinstance(document, bytes):
        doc_path.write_bytes(document)
    else:
        doc_path.write_text(json.dumps(document), encoding="utf-8")
    src = tmp_path / "tw.csv"
    save_csv(corpus_200, src)
    out = tmp_path / "out"
    argv = {
        "augment": ["augment", "--in", src, "--plan", doc_path],
        "synth": ["synth", "--spec", doc_path],
        "pipeline": ["pipeline", "--config", doc_path],
        "impute": ["impute", "--method", "sta", "--in", doc_path],
    }.get(command, ["plot", "--kind", command, "--in", doc_path])
    assert run([*argv, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("error:")]
    assert str(doc_path) in err
    assert not out.exists()


def test_unknown_origin_exits_1(tmp_path, capsys, corpus_200):
    from twkit.table import save_csv

    src = tmp_path / "tw.csv"
    origins = ["real"] * len(corpus_200)
    origins[4] = "smote"
    save_csv(corpus_200, src, origins=origins)
    out = tmp_path / "corr.json"
    assert run(["correlate", "--in", src, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert str(src) in err and "row 5" in err and "'smote'" in err
    assert not out.exists()


@pytest.mark.parametrize("rate", ["0", "1", "1.5"])
def test_eval_impute_rate_out_of_range_exits_1(tmp_path, capsys, corpus_200, rate):
    from twkit.table import save_csv

    src = tmp_path / "tw.csv"
    save_csv(corpus_200, src)
    out = tmp_path / "report.json"
    assert run(["eval-impute", "--in", src, "--rate", rate, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: rate must be in (0, 1), got {float(rate)}")
    assert not out.exists()


@pytest.mark.parametrize("method", ["sta", "mice"])
@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
def test_non_finite_height_exits_1(tmp_path, capsys, method, token):
    from twkit import default_synthesis_spec, synthesize_corpus
    from twkit.table import inject_missing, save_csv

    table = synthesize_corpus(default_synthesis_spec(), 120, seed=5)
    injected, _ = inject_missing(table, ["height"], 0.3, seed=6)
    src = tmp_path / "tw.csv"
    save_csv(injected, src)
    lines = src.read_text(encoding="utf-8").splitlines()
    column = lines[0].split(",").index("height")
    row = next(r for r in range(1, len(lines)) if lines[r].split(",")[column])
    cells = lines[row].split(",")
    cells[column] = token
    lines[row] = ",".join(cells)
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "fixed.csv"
    assert run(["impute", "--method", method, "--in", src, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert str(src) in err and f"row {row}" in err and "height" in err and repr(token) in err
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [
    (["augment", "--epochs", "0"], "epochs"),
    (["augment", "--epochs", "-3"], "epochs"),
    (["impute", "--method", "gain", "--epochs", "0"], "epochs"),
    (["eval-impute", "--epochs", "0"], "epochs"),
    (["eval-impute", "--features", "tw_class"], "'tw_class'"),
    (["eval-impute", "--features", "height,tw_class"], "'tw_class'"),
], ids=["augment-epochs-0", "augment-epochs-negative", "impute-gain-epochs-0", "eval-impute-epochs-0",
        "eval-impute-label-feature", "eval-impute-label-among-features"])
def test_bad_training_setting_exits_1(tmp_path, capsys, corpus_200, argv, named):
    # rejected before any training, so no untrained model writes output
    from twkit.table import inject_missing, save_csv

    injected, _ = inject_missing(corpus_200, ["height"], 0.3, seed=1)
    src = tmp_path / "tw.csv"
    save_csv(injected if argv[0] == "impute" else corpus_200, src)
    out = tmp_path / "out"
    assert run([*argv, "--in", src, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and named in err
    assert not out.exists()


@pytest.mark.parametrize("n_rows", [1, 200])
@pytest.mark.parametrize("method", ["sta", "mice", "gain"])
def test_impute_entirely_missing_attribute_exits_1(tmp_path, capsys, corpus_200, method, n_rows):
    # GAIN has nothing to learn the column from either, so it fails like STA and MICE
    from twkit.table import save_csv

    i = corpus_200.schema.index_of("headgear")
    rows = [r[:i] + (None,) + r[i + 1:] for r in corpus_200.rows[:n_rows]]
    src = tmp_path / "tw.csv"
    save_csv(corpus_200.replace_rows(rows), src)
    out = tmp_path / "fixed.csv"
    assert run(["impute", "--method", method, "--in", src, "--out", out, "--epochs", 5]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "attribute 'headgear' is entirely missing" in err
    assert not out.exists()


def test_stats_on_a_column_named_twice_exits_1(tmp_path, capsys, corpus_200):
    # a second `height` column would otherwise be ignored
    from twkit.table import save_csv

    src = tmp_path / "tw.csv"
    save_csv(corpus_200, src)
    header, *rows = src.read_text(encoding="utf-8").splitlines()
    src.write_text("\n".join([header + ",height"] + [row + ",999.0" for row in rows]) + "\n", encoding="utf-8")
    out = tmp_path / "stats.json"
    assert run(["stats", "--in", src, "--attrs", "height,headgear", "--out", out]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [f"error: {src}: column 'height' appears twice"]
    assert not out.exists()


def test_stats_on_a_table_without_rows_exits_1(tmp_path, capsys, corpus_200):
    # an empty payload would only fail later, in `plot`
    from twkit.table import save_csv

    src = tmp_path / "tw.csv"
    save_csv(corpus_200.replace_rows([]), src)
    assert src.read_text(encoding="utf-8").count("\n") == 1
    out = tmp_path / "stats.json"
    assert run(["stats", "--in", src, "--attrs", "height,headgear", "--out", out]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "no class has a row" in err
    assert not out.exists()


def test_stats_leaves_out_a_class_without_rows(tmp_path, corpus_200):
    from twkit.table import save_csv

    label = corpus_200.schema.label_index
    without_hr = corpus_200.replace_rows(r for r in corpus_200.rows if r[label] != "HR")
    src = tmp_path / "tw.csv"
    save_csv(without_hr, src)
    out = tmp_path / "stats.json"
    assert run(["stats", "--in", src, "--attrs", "height,headgear", "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert "HR" not in doc["classes"] and "RW" in doc["classes"]
    for panel in doc["panels"]:
        assert set(panel["box"]) == set(panel["violin"]) == set(doc["classes"])
    fig = tmp_path / "box.svg"
    assert run(["plot", "--kind", "box", "--in", out, "--out", fig]) == 0


def test_stats_class_without_values_still_fails(tmp_path, capsys, corpus_200):
    from twkit.table import save_csv

    schema = corpus_200.schema
    label, height = schema.label_index, schema.index_of("height")
    rows = [
        r[:height] + (None,) + r[height + 1:] if r[label] == "HR" else r for r in corpus_200.rows
    ]
    src = tmp_path / "tw.csv"
    save_csv(corpus_200.replace_rows(rows), src)
    out = tmp_path / "stats.json"
    assert run(["stats", "--in", src, "--attrs", "height", "--out", out]) == 1
    assert "class 'HR' has no values for attribute 'height'" in capsys.readouterr().err
    assert not out.exists()


# seeds whose own corpus has one HR row (8) and none (30); SMOTENC failed on both
@pytest.mark.parametrize("seed", [8, 30])
def test_pipeline_completes_with_class_under_two_rows(tmp_path, schema, seed):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "bench_rows": 200, "gain_epochs": 5, "cgan_epochs": 2, "methods": ["sta"], "classifiers": ["dt"],
    }), encoding="utf-8")
    out = tmp_path / "pipeline"
    with (
        pytest.warns(AbsentClassWarning, match=r"^classes absent from truth, excluded from macro AUC: 'HR'$"),
        pytest.warns(AbsentClassWarning, match=r"^classes absent from truth, excluded from macro AUC: 'CS', 'CT', 'HR', 'MR'$"),
        pytest.warns(UserWarning, match="held at their count: 'HR'"),
    ):
        assert run(["pipeline", "--out", out, "--seed", seed, "--config", config]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stages_completed"] == ["synth", "eval_impute", "augment", "train", "analyze", "plot"]
    corpus, _ = load_augmented_csv(out / "tw.csv", schema)
    augmented, origins = load_augmented_csv(out / "tws.csv", schema)
    assert len(augmented) == 1800
    assert class_histogram(augmented)["HR"] == class_histogram(corpus)["HR"] < 2
    classes = json.loads((out / "reports" / "analysis.json").read_text())["box"]["classes"]
    assert ("HR" in classes) == (class_histogram(corpus)["HR"] > 0)


@pytest.mark.parametrize("command", ["synth", "correlate", "plot"])
def test_unwritable_output_exits_1(tmp_path, capsys, corpus_200, command):
    from twkit.table import save_csv

    src = tmp_path / "tw.csv"
    save_csv(corpus_200, src)
    importance = tmp_path / "importance.json"
    importance.write_text(json.dumps({"importance": [["height", 1.0]]}), encoding="utf-8")
    out = tmp_path / "missing" / "x.out"
    argv = {
        "synth": ["synth", "--n", 20],
        "correlate": ["correlate", "--in", src],
        "plot": ["plot", "--kind", "importance", "--in", importance],
    }[command]
    assert run([*argv, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and str(out) in err
    assert not out.parent.exists()


def test_plot_reproduces_pipeline_figures(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "bench_rows": 200, "gain_epochs": 5, "cgan_epochs": 2, "methods": ["sta"], "classifiers": ["dt"],
    }), encoding="utf-8")
    out = tmp_path / "pipeline"
    with pytest.warns(AbsentClassWarning, match=r"^classes absent from truth, excluded from macro AUC: 'CS', 'HR', 'MR'$"):
        assert run(["pipeline", "--out", out, "--seed", 7, "--config", config]) == 0
    analysis = json.loads((out / "reports" / "analysis.json").read_text())
    payloads = {"importance": out / "reports" / "classification.json"}
    for kind, key in (("box", "box"), ("violin", "violin"), ("heatmap", "correlation")):
        payloads[kind] = tmp_path / f"{kind}.json"
        payloads[kind].write_text(json.dumps(analysis[key]), encoding="utf-8")
    titles = {
        "importance": "Feature importance",
        "box": "Key attribute distributions",
        "violin": "Attribute densities",
        "heatmap": "Attribute correlation",
    }
    for kind, title in titles.items():
        fig = tmp_path / f"{kind}.svg"
        assert run(["plot", "--kind", kind, "--in", payloads[kind], "--out", fig, "--title", title]) == 0
        assert fig.read_bytes() == (out / f"{kind}.svg").read_bytes()
