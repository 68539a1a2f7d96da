#!/usr/bin/env python3
"""twkit benchmark.

    python3 perfbench/run.py --workload {pipeline,forest,repair} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports twkit from ./src and writes
only under ./.perfbench. Set-up (a fresh import of twkit plus the workload's
inputs, made from the seed) is repeated SETUP_REPEATS times and timed. Then a
single closed-loop client, in this one process, runs the workload's CLI
commands through `twkit.cli.main`, pass after pass, for about S seconds. Every
command's outputs are checked, and every pass's output hashes must equal the
first pass's. A command that exits non-zero, raises, or fails a check counts
as failed.

--trace 0 prints the end-to-end metrics: wall_s, the median pass time;
setup_s, the median set-up time (interpreter start is not included);
peak_rss_mb, the process's peak resident memory after the first pass; and
quality, the workload's number from QUALITY below. --trace 1 alternates
untraced and traced passes and prints the per-layer metrics: spans recorded
around twkit's public functions (see tracer.py), the tracing overhead and how
much of a traced pass the top-level spans cover. A layer the workload never
calls reports 0.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The line before it holds the details: the environment,
every pass, the quality numbers, the artifact hashes and, for the pipeline
at seed 7, the comparison with the seed-code hashes.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

from tracer import END, FUNCTIONS, NAME, PARENT, START, WORK_KEYS, Tracer, tree_shape
from workloads import PIPELINE_CONFIG, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NN_CALLERS = ("augment", "impute", "classify")  # the modules that train networks

# Each pipeline stage starts with its first call made directly by `cmd_pipeline`.
PIPELINE_STAGE_STARTS = (
    ("synth", "synth.synthesize_corpus"),
    ("eval_impute", "synth.synthesize_corpus"),
    ("augment", "table.split_stratified"),
    ("train", "encoding.build_codec"),
    ("analyze", "analyze.correlation_matrix"),
    ("plot", "render.render_importance_bar"),
)

# The end-to-end quality number of each workload: the steadiest across seeds of
# the numbers its outputs give. All of them are in the details line.
QUALITY = {"pipeline": "rf_after_accuracy", "forest": "cv_accuracy", "repair": "mice_cat_accuracy"}

# Modules whose functions are reported generically: calls, seconds and the
# work counts their spans record. The other modules get metrics of their own.
GENERIC_MODULES = ("synth", "table", "encoding", "metrics", "analyze", "render")
WORK_UNITS = {"rows": "rows", "bytes_in": "bytes", "bytes_out": "bytes"}


def pin_blas_threads() -> None:
    """One BLAS thread: at these matrix sizes a second thread buys no wall time
    and makes timings noisier. Must run before numpy is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_twkit():
    """Import twkit afresh from ./src, dropping any copy already loaded."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    for name in [n for n in sys.modules if n == "twkit" or n.startswith("twkit.")]:
        del sys.modules[name]
    twkit = importlib.import_module("twkit")
    importlib.import_module("twkit.cli")
    if Path(twkit.__file__).resolve().parent != ROOT / "src" / "twkit":
        raise ImportError(f"twkit was imported from {twkit.__file__}, not from {ROOT / 'src'}")
    return twkit


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "platform": platform.platform(),
        "seed": seed,
    }


def run_command(main, argv, tracer):
    """Run one CLI command; return None on success, else why it failed."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = tracer.call(f"cli.{argv[0]}", main, argv) if tracer else main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a raise is a failed command, not a crashed benchmark
            return f"raised {exc!r}"
    if code != 0:
        return f"exit {code}: {sink.getvalue().strip()[-300:]}"
    return None


def output_hashes(out: Path, outputs) -> dict[str, str]:
    files = []
    for rel in outputs:
        path = out / rel
        files.extend(sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path])
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest() for p in files if p.exists()
    }


def run_pass(workload, seed: int, inputs: Path, out: Path, tracer) -> dict:
    main = sys.modules["twkit.cli"].main
    out.mkdir(parents=True)
    commands = workload.commands(seed, inputs, out)
    errors = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        for command in commands:
            errors.append(run_command(main, command.argv, tracer))
        wall = time.perf_counter() - start
    results = []
    for command, error in zip(commands, errors):
        if error is None:
            try:
                command.check(out)
            except Exception as exc:  # malformed output of any kind fails the check
                error = f"check failed: {exc!r}"
        results.append({
            "command": command.argv[0],
            "error": error,
            "hashes": output_hashes(out, command.outputs),
        })
    return {"wall_s": wall, "traced": tracer is not None, "warnings": len(caught), "commands": results}


def pipeline_stage_seconds(tracer: Tracer) -> dict[str, float]:
    pipelines = [i for i, s in enumerate(tracer.spans) if s[PARENT] < 0 and s[NAME] == "cli.pipeline"]
    if not pipelines:
        return {}
    top = tracer.spans[pipelines[0]]
    starts = []
    for child in tracer.children(pipelines[0]):
        if len(starts) < len(PIPELINE_STAGE_STARTS) and child[NAME] == PIPELINE_STAGE_STARTS[len(starts)][1]:
            starts.append(child[START])
    if len(starts) < len(PIPELINE_STAGE_STARTS):
        return {}
    starts[0] = top[START]
    ends = starts[1:] + [top[END]]
    return {stage: end - start for (stage, _), start, end in zip(PIPELINE_STAGE_STARTS, starts, ends)}


def layer_metrics(tracer: Tracer, record: dict | None = None) -> list[tuple[str, float, str]]:
    """Per-layer metrics of one traced pass, as (name, value, unit).

    Called with an empty tracer and no record it lists the catalogue."""
    record = record or {}
    agg = tracer.aggregate()
    rows = []

    def add(name, value, unit):
        rows.append((name, value, unit))

    def get(span, key):
        return agg.get(span, {}).get(key, 0)

    flop = nn_s = 0.0
    for fn in ("forward", "backward", "adam_step"):
        for caller in NN_CALLERS:
            span = f"nn.{fn}@{caller}"
            add(f"nn.{fn}.{caller}.calls", get(span, "calls"), "count")
            add(f"nn.{fn}.{caller}.self_s", get(span, "self_s"), "s")
            if fn != "adam_step":
                flop += get(span, "flop")
                nn_s += get(span, "self_s")
    add("nn.gflop", flop / 1e9, "GFLOP")
    add("nn.gflop_per_s", flop / 1e9 / nn_s if nn_s else 0.0, "GFLOP/s")

    add("augment.smotenc_generate.s", get("augment.smotenc_generate", "s"), "s")
    add("augment.smotenc_generate.rows", get("augment.smotenc_generate", "rows"), "rows")
    add("augment.train_table_cgan.s", get("augment.train_table_cgan", "s"), "s")
    add("augment.train_table_cgan.steps", get("augment.train_table_cgan", "steps"), "count")
    add("augment.sample_table_cgan.s", get("augment.sample_table_cgan", "s"), "s")
    add("augment.sample_table_cgan.rows", get("augment.sample_table_cgan", "rows"), "rows")
    add("augment.cgan_class_agreement", record.get("cgan_class_agreement", 0.0), "share")

    for fn in ("train_gain", "evaluate_imputation", "impute_mice", "impute_sta"):
        add(f"impute.{fn}.s", get(f"impute.{fn}", "s"), "s")

    add("schema.codes.calls", tracer.counts.get("schema.codes", 0), "count")
    add("schema.code_index.calls", tracer.counts.get("schema.code_index", 0), "count")

    nodes, depth = tree_shape(tracer.trees)
    add("classify.train_tree.calls", get("classify.train_tree", "calls"), "count")
    add("classify.train_tree.s", get("classify.train_tree", "s"), "s")
    add("classify.tree_nodes", nodes, "count")
    add("classify.tree_max_depth", depth, "count")
    add("classify.predict_proba.s", get("classify.predict_proba", "s"), "s")
    add("classify.predict_proba.rows", get("classify.predict_proba", "rows"), "rows")
    for fn in ("train_forest", "feature_importance", "train_logreg", "train_mlp_classifier",
               "train_linear_svm"):
        add(f"classify.{fn}.s", get(f"classify.{fn}", "s"), "s")

    for module, _, span, work in FUNCTIONS:
        if module in GENERIC_MODULES:
            add(f"{span}.calls", get(span, "calls"), "count")
            add(f"{span}.s", get(span, "s"), "s")
            for key in WORK_KEYS[work]:
                add(f"{span}.{key}", get(span, key), WORK_UNITS[key])

    stages = pipeline_stage_seconds(tracer)
    for stage, _ in PIPELINE_STAGE_STARTS:
        add(f"cli.stage.{stage}.s", stages.get(stage, 0.0), "s")
    add("cli.warnings", record.get("warnings", 0), "count")
    top_s = sum(s[END] - s[START] for s in tracer.top_level())
    add("trace.top_span_coverage", top_s / record["wall_s"] if record else 0.0, "share")
    add("trace.overhead", record.get("overhead", 0.0), "share")
    return rows


def cgan_class_agreement(models) -> float:
    if not models:
        return 0.0
    agreement = sys.modules["twkit.augment"].cgan_class_agreement
    return statistics.fmean(agreement(m) for m in models)


def seed7_reference(seed: int, hashes: dict[str, str]) -> dict:
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    if seed != reference["seed"]:
        return {"seed": seed, "status": f"no reference hashes for seed {seed}"}
    ours = {k.removeprefix("pipeline/"): v for k, v in hashes.items()}
    expected = reference["bench_config_sha256"]
    return {
        "seed": seed,
        # tw.csv does not depend on the epoch counts, so the default-config
        # hash recorded from the seed code applies to it as well
        "tw_csv_matches_default_config": ours.get("tw.csv", "").startswith(
            reference["default_config_prefixes"]["tw.csv"]),
        "all_match_seed_code": ours == expected,
        "differing": sorted(k for k in set(ours) | set(expected) if ours.get(k) != expected.get(k)),
    }


def set_up(workload, seed: int, work: Path) -> tuple[Path, list[float]]:
    """Import twkit and make the inputs SETUP_REPEATS times; return the inputs
    directory and each set-up's seconds."""
    inputs = work / "inputs"
    seconds = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        start = time.perf_counter()
        twkit = import_twkit()
        workload.setup(twkit, seed, inputs)
        seconds.append(time.perf_counter() - start)
    return inputs, seconds


def run_passes(workload, seed: int, inputs: Path, work: Path, seconds: float, trace: bool):
    """Closed loop: pass after pass until about `seconds` are measured. With
    `trace`, odd passes are traced, and there is at least one of each kind.
    Returns the pass records and the peak RSS after the first pass."""
    passes = []
    start = time.perf_counter()
    while True:
        tracer = Tracer() if trace and len(passes) % 2 == 1 else None
        if tracer:
            tracer.install()
        try:
            record = run_pass(workload, seed, inputs, work / f"pass-{len(passes)}", tracer)
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            record["tracer"] = tracer
            record["cgan_class_agreement"] = cgan_class_agreement(tracer.models)
        passes.append(record)
        if len(passes) == 1:
            # the high-water mark of set-up plus one pass: what one command costs
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elapsed = time.perf_counter() - start
        if (not trace or len(passes) >= 2) and elapsed + 0.5 * elapsed / len(passes) >= seconds:
            return passes, peak_rss_mb


def per_layer_metrics(passes) -> dict:
    """Median over the traced passes of each per-layer metric."""
    untraced = statistics.median(r["wall_s"] for r in passes if not r["traced"])
    traced = [r for r in passes if r["traced"]]
    overhead = statistics.median(r["wall_s"] for r in traced) / untraced - 1
    per_pass = [layer_metrics(r["tracer"], {**r, "overhead": overhead}) for r in traced]
    return {
        name: {"value": statistics.median(p[i][1] for p in per_pass), "unit": unit}
        for i, (name, _, unit) in enumerate(per_pass[0])
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    pin_blas_threads()

    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs, setup_s = set_up(workload, args.seed, work)
    except ImportError as exc:
        print(f"perfbench: cannot import twkit from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    passes, peak_rss_mb = run_passes(workload, args.seed, inputs, work, args.seconds, bool(args.trace))

    first = passes[0]
    for record in passes[1:]:
        for command, reference in zip(record["commands"], first["commands"]):
            if command["error"] is None and command["hashes"] != reference["hashes"]:
                command["error"] = "output hashes differ from pass 0"
    try:
        quality = workload.quality(inputs, work / "pass-0")
    except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
        quality = {}
        first["commands"][-1]["error"] = first["commands"][-1]["error"] or f"quality: {exc!r}"
    commands = [c for r in passes for c in r["commands"]]
    failed = sum(c["error"] is not None for c in commands)
    hashes = {k: v for c in first["commands"] for k, v in c["hashes"].items()}

    if args.trace:
        metrics = per_layer_metrics(passes)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in passes), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "quality": {"value": quality.get(QUALITY[workload.name], 0.0), "unit": "score"},
        }

    details = {
        "workload": workload.name,
        "environment": environment(args.seed),
        "setup_s": setup_s,
        "passes": [
            {"wall_s": r["wall_s"], "traced": r["traced"], "warnings": r["warnings"],
             "errors": [c["error"] for c in r["commands"] if c["error"]]}
            for r in passes
        ],
        "error_rate": failed / len(commands),
        "wait_s": "not applicable: one closed-loop client, no queue and no retry",
        "quality": quality,
        "artifact_sha256": hashes,
    }
    if workload.name == "pipeline":
        details["pipeline_config"] = PIPELINE_CONFIG
        details["pipeline_seed"] = workload.seed
        details["seed7_reference"] = seed7_reference(workload.seed, hashes)
    if args.trace:
        details["spans"] = passes[1]["tracer"].aggregate()
    (work / "details.json").write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(details, separators=(",", ":")))
    print(json.dumps({"correct": failed == 0, "attempted": len(commands), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
