"""The three benchmark workloads: inputs made from the seed, the CLI commands
one pass runs, the check each command's outputs must pass, and the quality
numbers read from those outputs.

- pipeline: `twkit pipeline` end to end. Every layer runs; nn training is
  the largest share, trees the next.
- forest: random-forest 5-fold CV plus importance on a rebalanced corpus.
  Tree split search and prediction do nearly all the work; nn does none.
- repair: STA and MICE repair of a large table, then correlation, statistics
  and figures. It writes CSVs as well as reading them and uses neither nn nor
  trees.

Sizes are chosen so that one pass takes 5 to 20 seconds on a 2-core machine
and a 30-second run holds one to six passes (see run.py).
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from pathlib import Path
from typing import Callable, NamedTuple

PIPELINE_STAGES = ("synth", "eval_impute", "augment", "train", "analyze", "plot")
# The default pipeline config with the GAIN and CGAN epoch counts cut to a
# tenth (defaults 1200 and 250), so that a 30-second run holds two passes.
PIPELINE_CONFIG = {"gain_epochs": 120, "cgan_epochs": 25}
PIPELINE_TOTAL_ROWS = 1800

FOREST_ROWS = 300
FOREST_FOLDS = 5

REPAIR_ROWS = 3000
REPAIR_FEATURES = ("hairstyle", "headgear", "weapon", "height")
REPAIR_RATE = 0.3
PLOT_KINDS = (("box", "stats.json"), ("violin", "stats.json"), ("heatmap", "corr.json"))


class CheckFailed(Exception):
    """A command exited 0 but its outputs are wrong."""


class Command(NamedTuple):
    argv: list[str]
    outputs: tuple[str, ...]  # files or directories, relative to the pass directory
    check: Callable[[Path], None]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _feature_names(twkit) -> list[str]:
    return [a.name for a in twkit.default_schema().features]


# -- pipeline ------------------------------------------------------------------


def usable_pipeline_seed(twkit, seed: int) -> int:
    """The first master seed from `seed` up whose corpus has at least two rows
    of every class. SMOTENC needs two; `twkit pipeline` rejects a corpus with
    fewer (exit 1), which the default 1,087-row spec draws for 15 of the seeds
    0-299."""
    spec = twkit.default_synthesis_spec()
    n_rows = twkit.cli.PipelineConfig().n_rows
    while True:
        corpus = twkit.synthesize_corpus(spec, n_rows, twkit.seeds.derive_seed(seed, "synth"))
        if min(twkit.class_histogram(corpus).values()) >= 2:
            return seed
        seed += 1


class Pipeline:
    name = "pipeline"

    def setup(self, twkit, seed: int, inputs: Path) -> None:
        self.seed = usable_pipeline_seed(twkit, seed)
        (inputs / "pipeline.json").write_text(json.dumps(PIPELINE_CONFIG), encoding="utf-8")

    def commands(self, seed: int, inputs: Path, out: Path) -> list[Command]:
        argv = ["pipeline", "--out", str(out / "pipeline"), "--seed", str(self.seed),
                "--config", str(inputs / "pipeline.json")]
        return [Command(argv, ("pipeline",), self._check)]

    @staticmethod
    def _check(out: Path) -> None:
        root = out / "pipeline"
        manifest = _read_json(root / "manifest.json")
        _require(manifest["stages_completed"] == list(PIPELINE_STAGES),
                 f"stages completed: {manifest['stages_completed']}")
        _, rows = _read_csv(root / "tws.csv")
        _require(len(rows) == PIPELINE_TOTAL_ROWS, f"tws.csv has {len(rows)} rows")

    def quality(self, inputs: Path, out: Path) -> dict[str, float]:
        root = out / "pipeline" / "reports"
        classification = _read_json(root / "classification.json")
        imputation = _read_json(root / "imputation.json")
        return {
            "rf_after_macro_f1": classification["after"]["macro_f1"],
            "rf_after_accuracy": classification["after"]["accuracy"],
            "rf_after_macro_auc": classification["after"]["macro_auc"],
            "gain_auc_diff": imputation["methods"]["gain"]["avg_auc_diff"],
        }


# -- forest --------------------------------------------------------------------


class Forest:
    name = "forest"

    def setup(self, twkit, seed: int, inputs: Path) -> None:
        # class mix of the augmented corpus: the default plan's stage-2 targets
        # for the default 1,087-row class counts
        self.features = _feature_names(twkit)
        spec = twkit.default_synthesis_spec()
        schema = twkit.default_schema()
        counts = {c: round(w * 1087) for c, w in spec.class_weights.items()}
        stage2 = twkit.default_augment_plan(counts, schema.class_codes, 1800, 130).stage2
        total = sum(stage2.values())
        spec = dataclasses.replace(spec, class_weights={c: n / total for c, n in stage2.items()})
        twkit.save_csv(twkit.synthesize_corpus(spec, FOREST_ROWS, seed, schema), inputs / "forest.csv")

    def commands(self, seed: int, inputs: Path, out: Path) -> list[Command]:
        corpus = str(inputs / "forest.csv")
        return [
            Command(["train", "--model", "rf", "--in", corpus, "--report", str(out / "cv.json"),
                     "--folds", str(FOREST_FOLDS), "--seed", str(seed)],
                    ("cv.json",), self._check_cv),
            Command(["importance", "--in", corpus, "--out", str(out / "importance.json"),
                     "--seed", str(seed)],
                    ("importance.json",), self._check_importance),
        ]

    @staticmethod
    def _check_cv(out: Path) -> None:
        folds = _read_json(out / "cv.json")["folds"]
        _require(len(folds) == FOREST_FOLDS, f"{len(folds)} folds reported")

    def _check_importance(self, out: Path) -> None:
        pairs = _read_json(out / "importance.json")["importance"]
        names = sorted(a for a, _ in pairs)
        _require(names == sorted(self.features), f"importance covers {names}")
        total = math.fsum(w for _, w in pairs)
        _require(abs(total - 1.0) <= 1e-9, f"importance sums to {total!r}")

    def quality(self, inputs: Path, out: Path) -> dict[str, float]:
        cv = _read_json(out / "cv.json")
        return {"cv_accuracy": cv["mean_accuracy"], "cv_macro_auc": cv["mean_macro_auc"]}


# -- repair --------------------------------------------------------------------


def _check_repaired(missing: Path, repaired: Path) -> None:
    header_in, rows_in = _read_csv(missing)
    header_out, rows_out = _read_csv(repaired)
    _require(header_in == header_out, "header changed")
    _require(len(rows_in) == len(rows_out), "row count changed")
    for i, (row_in, row_out) in enumerate(zip(rows_in, rows_out)):
        for name, cell_in, cell_out in zip(header_in, row_in, row_out):
            _require(cell_out not in ("", "NA"), f"row {i} {name}: still empty")
            if cell_in not in ("", "NA"):
                _require(cell_in == cell_out, f"row {i} {name}: observed {cell_in!r} became {cell_out!r}")


def _check_svg(path: Path) -> None:
    text = path.read_text(encoding="utf-8")
    _require(text.startswith("<svg") and text.rstrip().endswith("</svg>"), f"{path.name} is not an SVG")


class Repair:
    name = "repair"

    def setup(self, twkit, seed: int, inputs: Path) -> None:
        self.features = _feature_names(twkit)
        truth = twkit.synthesize_corpus(twkit.default_synthesis_spec(), REPAIR_ROWS, seed)
        missing, _ = twkit.inject_missing(truth, list(REPAIR_FEATURES), REPAIR_RATE, seed)
        twkit.save_csv(truth, inputs / "truth.csv")
        twkit.save_csv(missing, inputs / "missing.csv")

    def commands(self, seed: int, inputs: Path, out: Path) -> list[Command]:
        missing = inputs / "missing.csv"
        mice = str(out / "mice.csv")

        def check_imputed(name):
            return lambda o: _check_repaired(missing, o / name)

        def check_corr(o: Path) -> None:
            n = len(_read_json(o / "corr.json")["attributes"])
            _require(n == 9, f"correlation matrix over {n} attributes")

        def check_stats(o: Path) -> None:
            n = len(_read_json(o / "stats.json")["panels"])
            _require(n == 10, f"statistics for {n} attributes")

        commands = [
            Command(["impute", "--method", "sta", "--in", str(missing), "--out", str(out / "sta.csv"),
                     "--seed", str(seed)], ("sta.csv",), check_imputed("sta.csv")),
            Command(["impute", "--method", "mice", "--in", str(missing), "--out", mice,
                     "--seed", str(seed)], ("mice.csv",), check_imputed("mice.csv")),
            Command(["correlate", "--in", mice, "--out", str(out / "corr.json")],
                    ("corr.json",), check_corr),
            Command(["stats", "--in", mice, "--attrs", ",".join(self.features),
                     "--out", str(out / "stats.json")], ("stats.json",), check_stats),
        ]
        for kind, source in PLOT_KINDS:
            name = f"{kind}.svg"
            commands.append(Command(
                ["plot", "--kind", kind, "--in", str(out / source), "--out", str(out / name)],
                (name,), lambda o, n=name: _check_svg(o / n),
            ))
        return commands

    def quality(self, inputs: Path, out: Path) -> dict[str, float]:
        """Blanked categorical cells MICE restored to the true code, and the
        RMSE of the restored heights against the generated truth."""
        header, truth = _read_csv(inputs / "truth.csv")
        _, missing = _read_csv(inputs / "missing.csv")
        _, mice = _read_csv(out / "mice.csv")
        right = cells = 0
        squared = []
        for name in REPAIR_FEATURES:
            j = header.index(name)
            for t, m, r in zip(truth, missing, mice):
                if m[j] != "":
                    continue
                if name == "height":
                    squared.append((float(r[j]) - float(t[j])) ** 2)
                else:
                    cells += 1
                    right += r[j] == t[j]
        return {
            "mice_cat_accuracy": right / cells,
            "mice_height_rmse": math.sqrt(math.fsum(squared) / len(squared)),
        }


WORKLOADS = {w.name: w for w in (Pipeline(), Forest(), Repair())}
