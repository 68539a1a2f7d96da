"""Command-line front end.

Individual commands mirror the library operations; `pipeline` chains them
(corpus -> imputation benchmark -> augmentation -> metrics -> figures) from a
single master seed and writes a manifest with the sha256 of every artifact.
Each stage draws from its own seed, derived from hash(master seed, stage
name), so the stages' random streams are independent of one another.

Exit codes: 0 success, 1 data/compute error, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, theme
from .analyze import BoxStats, CorrelationMatrix, ViolinStats, box_stats, correlation_matrix, group_by_class, kde
from .augment import (
    CganConfig,
    default_augment_plan,
    load_plan,
    two_stage_augment,
)
from .classify import CLASSIFIERS, feature_importance, fit_and_score
from .encoding import build_codec, label_indices
from .errors import DataError, TwkitError
from .impute import TEST_FRACTION, GainConfig, evaluate_imputation, gain_impute_table, impute_mice, impute_sta
from .jsonio import integer, read_json, write_json
from .metrics import AbsentClassWarning, require_two_classes
from .render import PlotSpec, render_box_grid, render_heatmap, render_importance_bar, render_violin_grid
from .schema import default_schema
from .seeds import derive_seed
from .synth import default_synthesis_spec, load_spec, synthesize_corpus
from .table import class_histogram, kfold_stratified, load_augmented_csv, save_csv, split_stratified


def _load_table(path, schema):
    table, _ = load_augmented_csv(path, schema)
    return table


# -- individual commands ---------------------------------------------------------


def cmd_synth(args) -> int:
    schema = default_schema()
    spec = load_spec(args.spec, schema) if args.spec else default_synthesis_spec()
    table = synthesize_corpus(spec, args.n, args.seed, schema)
    save_csv(table, args.out)
    print(f"wrote {args.n} rows to {args.out}")
    return 0


def cmd_impute(args) -> int:
    schema = default_schema()
    table = _load_table(args.infile, schema)
    if args.method == "sta":
        out = impute_sta(table)
    elif args.method == "mice":
        out = impute_mice(table, rounds=args.rounds)
    else:  # gain, the last of the choices argparse allows
        config = GainConfig(epochs=args.epochs)
        out = gain_impute_table(table, config, seed=args.seed)
    save_csv(out, args.out)
    print(f"imputed {args.infile} -> {args.out} ({args.method})")
    return 0


def cmd_eval_impute(args) -> int:
    schema = default_schema()
    table = _load_table(args.infile, schema)
    report = evaluate_imputation(
        table,
        features=args.features.split(","),
        rate=args.rate,
        methods=args.methods.split(",") if args.methods else None,
        classifiers=args.classifiers.split(",") if args.classifiers else None,
        seed=args.seed,
        gain_config=GainConfig(epochs=args.epochs),
    )
    write_json(args.out, report.to_dict())
    print(report.format_text())
    return 0


def cmd_augment(args) -> int:
    schema = default_schema()
    table = _load_table(args.infile, schema)
    plan = load_plan(args.plan, schema) if args.plan else None
    result = two_stage_augment(
        table,
        plan=plan,
        cgan_config=CganConfig(epochs=args.epochs),
        seed=args.seed,
    )
    save_csv(result.table, args.out, origins=list(result.origins))
    print(f"augmented {len(table)} -> {len(result.table)} rows at {args.out}")
    return 0


def _feature_codec(train):
    return build_codec(train, attributes=tuple(a.name for a in train.schema.features))


def _importance_payload(forest, codec) -> dict:
    """The importance document: [attribute, weight] pairs, heaviest first."""
    ranked = sorted(feature_importance(forest, codec), key=lambda kv: -kv[1])
    return {"importance": [[a, w] for a, w in ranked]}


def _warn_absent(metrics) -> None:
    if metrics.absent_classes:
        warnings.warn(AbsentClassWarning(metrics.absent_classes))


def _single_split_fit(table, model, seed, test_fraction):
    train, test = split_stratified(table, test_fraction, derive_seed(seed, "split"))
    require_two_classes(label_indices(test), table.schema.class_codes)
    codec = _feature_codec(train)
    metrics, fitted = fit_and_score(model, train, test, codec, derive_seed(seed, model))
    _warn_absent(metrics)
    return metrics, fitted, codec


def cmd_train(args) -> int:
    schema = default_schema()
    table = _load_table(args.infile, schema)
    if args.folds:
        folds = kfold_stratified(table, args.folds, derive_seed(args.seed, "folds"))
        for _, test in folds:  # every fold is checked before the first fit
            require_two_classes(label_indices(test), schema.class_codes)
        fold_docs = []
        for f, (train, test) in enumerate(folds):
            metrics, _ = fit_and_score(
                args.model, train, test, _feature_codec(train),
                derive_seed(args.seed, f"{args.model}-fold-{f}"),
            )
            _warn_absent(metrics)
            fold_docs.append(metrics.to_dict())
        summary = {
            "folds": fold_docs,
            "mean_accuracy": float(np.mean([d["accuracy"] for d in fold_docs])),
            "mean_macro_auc": float(np.mean([d["macro_auc"] for d in fold_docs])),
        }
        write_json(args.report, summary)
        print(f"{args.folds}-fold accuracy {summary['mean_accuracy']:.4f}  "
              f"macro AUC {summary['mean_macro_auc']:.4f}")
        return 0
    metrics, _, _ = _single_split_fit(table, args.model, args.seed, args.test_fraction)
    write_json(args.report, metrics.to_dict())
    print(f"accuracy {metrics.accuracy:.4f}  macro AUC {metrics.macro_auc:.4f}")
    return 0


def cmd_importance(args) -> int:
    schema = default_schema()
    table = _load_table(args.infile, schema)
    _, forest, codec = _single_split_fit(table, "rf", args.seed, args.test_fraction)
    payload = _importance_payload(forest, codec)
    write_json(args.out, payload)
    print("\n".join(f"{a:<12} {w:.4f}" for a, w in payload["importance"]))
    return 0


def cmd_correlate(args) -> int:
    schema = default_schema()
    table = _load_table(args.infile, schema)
    attrs = args.attrs.split(",") if args.attrs else None
    matrix = correlation_matrix(table, attrs)
    write_json(args.out, matrix.to_dict())
    print(f"wrote {len(matrix.attributes)}x{len(matrix.attributes)} correlation matrix to {args.out}")
    return 0


def _stats_payload(table, attrs):
    """Box and violin statistics per attribute and class. A class with no rows
    is left out; one with rows but no values for an attribute is an error, and
    so is a table with no rows, which leaves nothing to draw."""
    counts = class_histogram(table)
    present = [c for c in table.schema.class_codes if counts[c]]
    if not present:
        raise DataError("no class has a row: there are no statistics to compute")
    panels = []
    for attr in attrs:
        grouped = group_by_class(table, attr)
        box = {}
        violin = {}
        for cls in present:
            values = grouped[cls]
            if not values:
                raise DataError(f"class {cls!r} has no values for attribute {attr!r}")
            box[str(cls)] = box_stats(values).to_dict()
            violin[str(cls)] = kde(values).to_dict()
        panels.append({"attribute": attr, "box": box, "violin": violin})
    return {"classes": [str(c) for c in present], "panels": panels}


def cmd_stats(args) -> int:
    schema = default_schema()
    table = _load_table(args.infile, schema)
    attrs = args.attrs.split(",")
    write_json(args.out, _stats_payload(table, attrs))
    print(f"wrote box/violin statistics for {len(attrs)} attribute(s) to {args.out}")
    return 0


# `plot --kind` -> (width, height, default title)
FIGURES = {
    "importance": (theme.DEFAULT_WIDTH, theme.DEFAULT_HEIGHT, "Feature importance"),
    "box": (900, 560, "Per-class distributions"),
    "violin": (900, 560, "Per-class densities"),
    "heatmap": (640, 560, "Attribute correlation"),
}


def _render_figure(kind: str, payload: dict, title: str) -> str:
    """One SVG figure from the document its producing command writes: the
    `importance` payload, the `stats` payload (box, violin) or the `correlate`
    payload (heatmap)."""
    width, height, _ = FIGURES[kind]
    spec = PlotSpec(title=title, width=width, height=height)
    if kind == "importance":
        return render_importance_bar([(a, w) for a, w in payload["importance"]], spec)
    if kind == "heatmap":
        values = np.array(payload["matrix_full_precision"], dtype=np.float64)
        return render_heatmap(CorrelationMatrix(tuple(payload["attributes"]), values), spec)
    stats = BoxStats if kind == "box" else ViolinStats
    classes = payload["classes"]
    panels = [
        (p["attribute"], {c: stats.from_dict(p[kind][c]) for c in classes}) for p in payload["panels"]
    ]
    if kind == "box":
        return render_box_grid(panels, classes, spec)
    return render_violin_grid(panels, classes, spec)


def cmd_plot(args) -> int:
    title = args.title or FIGURES[args.kind][2]
    doc = read_json(
        args.infile, lambda payload: _render_figure(args.kind, payload, title), f"{args.kind} payload"
    )
    Path(args.out).write_text(doc, encoding="utf-8")
    print(f"wrote {args.kind} figure to {args.out}")
    return 0


# -- pipeline ---------------------------------------------------------------------

# The paper's protocol, fixed: the share of each benchmark feature's cells
# blanked, the SMOTENC target cap, the GAIN setup, and the number of most
# important attributes drawn as box panels (the rest are drawn as violins).
MISSING_RATE = 0.3
SMOTE_CAP = 130
GAIN_ALPHA = 300.0
GAIN_HIDDEN = (16, 16)
BOX_PANELS = 6


@dataclass
class PipelineConfig:
    n_rows: int = 1087
    bench_rows: int = 520
    features: tuple[str, ...] = ("hairstyle", "headgear", "weapon", "height")
    methods: tuple[str, ...] = ("sta", "mice", "gain")
    classifiers: tuple[str, ...] = ("lr", "dt", "rf", "mlp", "svm")
    gain_epochs: int = 1200
    cgan_epochs: int = 250

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        """Any subset of the fields: a count is an integer (not a bool) of at
        least 1 and a list of names holds strings, so a bad config fails
        before any stage runs."""

        def parse(doc) -> PipelineConfig:
            config = cls()
            for key, value in doc.items():
                if key not in vars(config):
                    raise ValueError(f"unknown key {key!r}")
                if isinstance(getattr(config, key), tuple):
                    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                        raise TypeError(f"{key}: expected a list of strings, got {value!r}")
                    value = tuple(value)
                elif integer(key, value) < 1:
                    raise DataError(f"{key} must be >= 1, got {value}")
                setattr(config, key, value)
            return config

        return read_json(path, parse, "pipeline config")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cmd_pipeline(args) -> int:
    config = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "reports").mkdir(exist_ok=True)
    schema = default_schema()
    seed = args.seed
    artifacts: list[Path] = []
    completed: list[str] = []
    manifest_path = out / "manifest.json"

    def finish(status: int) -> int:
        manifest = {
            "seed": seed,
            "stages_completed": completed,
            "artifacts": [
                {"path": str(p.relative_to(out)), "sha256": _sha256(p)} for p in artifacts
            ],
        }
        write_json(manifest_path, manifest)
        return status

    def report(name: str, doc) -> None:
        path = out / "reports" / name
        write_json(path, doc)
        artifacts.append(path)

    def augment(table, label):
        plan = default_augment_plan(class_histogram(table), schema.class_codes, smote_cap=SMOTE_CAP)
        return two_stage_augment(
            table, plan, CganConfig(epochs=config.cgan_epochs),
            seed=derive_seed(seed, label),
        )

    try:
        spec = default_synthesis_spec()
        corpus = synthesize_corpus(spec, config.n_rows, derive_seed(seed, "synth"), schema)
        corpus_path = out / "tw.csv"
        save_csv(corpus, corpus_path)
        artifacts.append(corpus_path)
        completed.append("synth")

        bench = synthesize_corpus(spec, config.bench_rows, derive_seed(seed, "bench"), schema)
        imputation = evaluate_imputation(
            bench,
            features=list(config.features),
            rate=MISSING_RATE,
            methods=list(config.methods),
            classifiers=list(config.classifiers),
            seed=derive_seed(seed, "eval-impute"),
            gain_config=GainConfig(epochs=config.gain_epochs, alpha=GAIN_ALPHA, hidden=GAIN_HIDDEN),
        )
        report("imputation.json", imputation.to_dict())
        completed.append("eval_impute")

        train_real, test_real = split_stratified(corpus, TEST_FRACTION, derive_seed(seed, "split"))
        result = augment(corpus, "augment")
        tws_path = out / "tws.csv"
        save_csv(result.table, tws_path, origins=list(result.origins))
        artifacts.append(tws_path)
        completed.append("augment")
        # the metrics protocol augments only the training split, so the
        # held-out real rows never appear in any training set
        augmented_train = augment(train_real, "augment-train").table

        reports = {}
        for name, train_table in (("before", train_real), ("after", augmented_train)):
            codec = _feature_codec(train_table)
            metrics, forest = fit_and_score(
                "rf", train_table, test_real, codec, derive_seed(seed, f"rf-{name}")
            )
            _warn_absent(metrics)
            reports[name] = metrics.to_dict()
        # importance comes from the last forest, the one fit on the augmented split
        importance = _importance_payload(forest, codec)
        report("classification.json", {**reports, **importance})
        completed.append("train")

        matrix = correlation_matrix(augmented_train)
        ranked = [a for a, _ in importance["importance"]]
        box_attrs = ranked[:BOX_PANELS]
        violin_attrs = ranked[BOX_PANELS:] or ranked[-4:]
        analysis = {
            "correlation": matrix.to_dict(),
            "box": _stats_payload(augmented_train, box_attrs),
            "violin": _stats_payload(augmented_train, violin_attrs),
        }
        report("analysis.json", analysis)
        completed.append("analyze")

        figures = {
            name: _render_figure(kind, payload, title)
            for name, kind, payload, title in (
                ("importance.svg", "importance", importance, "Feature importance"),
                ("box.svg", "box", analysis["box"], "Key attribute distributions"),
                ("violin.svg", "violin", analysis["violin"], "Attribute densities"),
                ("heatmap.svg", "heatmap", analysis["correlation"], "Attribute correlation"),
            )
        }
        for name, doc in figures.items():
            path = out / name
            path.write_text(doc, encoding="utf-8")
            artifacts.append(path)
        completed.append("plot")
    except TwkitError as exc:
        print(f"pipeline failed after {completed}: {exc}", file=sys.stderr)
        return finish(1)

    status = finish(0)
    print(f"pipeline complete; manifest at {manifest_path}")
    return status


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="twkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"twkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus CSV")
    p.add_argument("--n", type=int, default=1087)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--spec", help="synthesis spec JSON (defaults to the built-in spec)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("impute", help="fill missing cells in a CSV")
    p.add_argument("--method", choices=["sta", "mice", "gain"], required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rounds", type=int, default=10, help="most MICE sweeps")
    p.add_argument("--epochs", type=int, default=400, help="GAIN training epochs")
    p.set_defaults(func=cmd_impute)

    p = sub.add_parser("eval-impute", help="benchmark imputation methods by metric deltas")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--features", default="hairstyle,headgear,weapon,height")
    p.add_argument("--rate", type=float, default=MISSING_RATE)
    p.add_argument("--methods", default=None)
    p.add_argument("--classifiers", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=400)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval_impute)

    p = sub.add_parser("augment", help="two-stage minority-class augmentation")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--plan", help="plan JSON (defaults to the built-in 1800-row plan)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=300, help="CGAN training epochs")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("train", help="train a classifier and write metrics JSON")
    p.add_argument("--model", choices=sorted(CLASSIFIERS), default="rf")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--test-fraction", type=float, default=TEST_FRACTION)
    p.add_argument("--folds", type=int, default=0, help="stratified k-fold CV instead of one split")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("importance", help="random-forest attribute importance")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--test-fraction", type=float, default=TEST_FRACTION)
    p.set_defaults(func=cmd_importance)

    p = sub.add_parser("correlate", help="pairwise categorical correlation matrix")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--attrs", default=None, help="comma list (default: categorical features)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("stats", help="per-class box and violin statistics")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--attrs", required=True, help="comma list of attributes")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("plot", help="render a figure from an analysis JSON")
    p.add_argument("--kind", choices=["importance", "box", "violin", "heatmap"], required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--title", default=None)
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("pipeline", help="run every stage and write a manifest")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--config", default=None, help="pipeline config JSON")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "train" and (args.folds < 0 or args.folds == 1):
        parser.error(f"--folds must be 0 (single split) or >= 2, got {args.folds}")
    if args.command in ("train", "importance") and not 0 < args.test_fraction < 1:
        parser.error(f"--test-fraction must be in (0, 1), got {args.test_fraction}")
    try:
        return args.func(args)
    except (TwkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
