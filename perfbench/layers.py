"""Per-layer metrics of the traced run.

Two sources: the spans the traced pipeline recorded around its calls into
refparse, and micro-timings made after the pipeline on the same inputs and
models. Micro-timings exclude warm-up: the pipeline's own call is the warm-up
for the costly ones, and decode/predict percentiles skip their first calls.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refparse as rp
from refparse.features import build_index, corpus_features

from pipeline import Accounting, RunState, check_parse_output, median
from tracing import Tracer, duration, span_cost

# name -> (unit, better)
PER_LAYER = {
    "synthgen.records_s": ("s", "lower"),
    "synthgen.generate_s": ("s", "lower"),
    "synthgen.refs": ("count", "higher"),
    "corpus.io_s": ("s", "lower"),
    "tokenizer.tokenize_s": ("s", "lower"),
    "tokenizer.tokens": ("count", "higher"),
    "features.extract_index_s": ("s", "lower"),
    "features.n_features": ("count", "lower"),
    "features.positions": ("count", "higher"),
    "crf.vectorize_s": ("s", "lower"),
    "crf.nll_grad_s": ("s", "lower"),
    "crf.viterbi_s": ("s", "lower"),
    "crf.decode_ms_p50": ("ms", "lower"),
    "crf.decode_ms_p99": ("ms", "lower"),
    "crf.predict_ms_p50": ("ms", "lower"),
    "crf.predict_ms_p99": ("ms", "lower"),
    "crf.save_s": ("s", "lower"),
    "crf.load_s": ("s", "lower"),
    "crf.model_bytes": ("bytes", "lower"),
    "optim.evals": ("count", "lower"),
    "optim.steps": ("count", "lower"),
    "optim.converged": ("flag", "higher"),
    "optim.objective_s": ("s", "lower"),
    "optim.self_s": ("s", "lower"),
    "metrics.evaluate_s": ("s", "lower"),
    "experiments.train_s": ("s", "lower"),
    "experiments.predict_s": ("s", "lower"),
    "experiments.other_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.cold_parse_s": ("s", "lower"),
    "cli.parse_s": ("s", "lower"),
    "src_lines": ("count", "lower"),
    "failed_share": ("share", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.pipeline_s": ("s", "lower"),
    "machine.reference_s": ("s", "lower"),
}


def timed(fn, repeats: int, warmup: int = 0) -> list[float]:
    """Seconds per call of fn(), after `warmup` untimed calls."""
    for _ in range(warmup):
        fn()
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def per_call_ms(fn, items, warmup: int) -> tuple[float, float]:
    """p50 and p99 in ms of fn(item) over items, skipping `warmup` calls."""
    for item in items[:warmup]:
        fn(item)
    out = []
    for item in items:
        t0 = time.perf_counter()
        fn(item)
        out.append((time.perf_counter() - t0) * 1000.0)
    cuts = statistics.quantiles(out, n=100)
    return median(out), cuts[98]


def src_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def process_seconds(argv: list[str], root: Path, repeats: int) -> float:
    """Median wall time of a fresh process, after one untimed start."""
    def start():
        subprocess.run(argv, cwd=root, env=src_env(root), check=True,
                       capture_output=True, timeout=120)

    return median(timed(start, repeats, warmup=1))


def src_lines(root: Path) -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((root / "src").rglob("*.py"))
    )


def _sum_in(tracer: Tracer, name: str, parent: dict) -> float:
    return sum(duration(s) for s in tracer.named(name, within=parent))


def from_spans(tracer: Tracer) -> dict:
    m = {}
    setups = tracer.named("setup")
    m["synthgen.records_s"] = median(
        [_sum_in(tracer, "synthgen.random_records", s) for s in setups])
    m["synthgen.generate_s"] = median(
        [_sum_in(tracer, "synthgen.generate_corpus", s) for s in setups])
    m["synthgen.refs"] = sum(s["refs"] for s in tracer.named("synthgen.generate_corpus", within=setups[0]))
    m["corpus.io_s"] = median([_sum_in(tracer, "corpus.io", s) for s in setups])

    train = tracer.named("crf.train")[0]
    minimize = tracer.named("optim.minimize", within=train)
    if minimize:  # absent when crf no longer calls refparse.optim.minimize
        run = minimize[0]
        objective = sum(duration(s) for s in tracer.named("optim.objective", within=run))
        m["optim.evals"] = run["evals"]
        m["optim.steps"] = run["steps"]
        m["optim.converged"] = run["converged"]
        m["optim.objective_s"] = objective
        m["optim.self_s"] = tracer.self_time(run)

    curves = tracer.named("experiments.size_curve")
    trains = [_sum_in(tracer, "experiments.train", c) for c in curves]
    predicts = [_sum_in(tracer, "experiments.predict_tags", c) for c in curves]
    if any(trains) and any(predicts):  # absent when the hooks found nothing to wrap
        m["experiments.train_s"] = median(trains)
        m["experiments.predict_s"] = median(predicts)
        m["experiments.other_s"] = median(
            [duration(c) - t - p for c, t, p in zip(curves, trains, predicts)])

    m["crf.save_s"] = duration(tracer.named("crf.save_model")[0])
    m["crf.load_s"] = duration(tracer.named("crf.load_model")[0])
    m["cli.parse_s"] = median([duration(s) for s in tracer.named("cli.parse")])
    return m


def micro(state: RunState, acct: Accounting, root: Path) -> dict:
    """Layer timings made after the pipeline, on the run's own inputs."""
    reps, warm = state.scale.micro_repeats, state.scale.warmup_calls
    model, loaded = state.model, state.loaded
    m = {}

    tokens = [rp.tokenize(line) for line in state.lines]
    m["tokenizer.tokenize_s"] = median(
        timed(lambda: [rp.tokenize(line) for line in state.lines], reps, warmup=1))
    m["tokenizer.tokens"] = sum(len(t) for t in tokens)

    config = model.feature_config
    surfaces = [inst.surfaces() for inst in state.train_corpus.instances]
    m["features.extract_index_s"] = median(
        timed(lambda: build_index(corpus_features(surfaces, config), config.min_count), reps))
    m["features.n_features"] = len(model.feature_index)
    m["features.positions"] = sum(len(s) for s in surfaces)

    def vectorize_all():
        return [rp.vectorize(s, model, gold_tags=inst.tags)
                for s, inst in zip(surfaces, state.train_corpus.instances)]

    vec = vectorize_all()
    m["crf.vectorize_s"] = median(timed(vectorize_all, reps))
    m["crf.nll_grad_s"] = median(
        timed(lambda: rp.nll_and_gradient(vec, model, 1.0), reps + 2, warmup=1))

    held_out = [rp.vectorize(tuple(x.surface for x in t), loaded) for t in tokens]
    m["crf.viterbi_s"] = median(
        timed(lambda: [rp.viterbi(v, loaded) for v in held_out], reps, warmup=1))
    m["crf.decode_ms_p50"], m["crf.decode_ms_p99"] = per_call_ms(
        lambda line: rp.decode(loaded, line), state.lines, warm)
    m["crf.predict_ms_p50"], m["crf.predict_ms_p99"] = per_call_ms(
        lambda inst: rp.predict_tags(model, inst.surfaces()), state.gold, warm)
    m["crf.model_bytes"] = state.model_path.stat().st_size

    gold_a = state.gold[0::2]
    corpus_a = rp.Corpus(name="A", labels=state.inputs.eval_a.labels, instances=tuple(gold_a))
    m["metrics.evaluate_s"] = median(
        timed(lambda: rp.evaluate(corpus_a, state.preds[0::2]), reps, warmup=1))

    bare = process_seconds([sys.executable, "-c", "pass"], root, reps)
    with_cli = process_seconds([sys.executable, "-c", "import refparse.cli"], root, reps)
    m["cli.import_s"] = with_cli - bare
    one_line, out = state.work / "one.txt", state.work / "one.xml"
    one_line.write_text(state.lines[0] + "\n", encoding="utf-8")
    m["cli.cold_parse_s"] = process_seconds(
        [sys.executable, "-m", "refparse.cli", "parse", "--model", str(state.model_path),
         "--in", str(one_line), "--out", str(out)], root, reps)
    _, failed, problem = check_parse_output(out, state.gold[:1])
    acct.add(1, failed, problem)
    m["src_lines"] = src_lines(root)
    return m


def per_layer_metrics(state: RunState, tracer: Tracer, root: Path,
                      acct: Accounting, pipeline_s: float) -> dict:
    m = from_spans(tracer)
    n_spans = len(tracer.spans)
    m["trace.spans"] = n_spans
    m["trace.overhead_s"] = n_spans * span_cost()
    m["trace.pipeline_s"] = pipeline_s
    m["machine.reference_s"] = median(state.samples["reference_s"])
    m.update(micro(state, acct, root))
    m["failed_share"] = acct.failed / acct.attempted
    return m
