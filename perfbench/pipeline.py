"""The benchmark's workloads: one user pipeline run at two input shapes.

Every workload runs the same stages, so every end-to-end metric exists on
every workload; the sizes decide which stage dominates:

1. set-up: records -> generate family A (split into train / eval) and family
   B -> inline-XML write/read;
2. train: `refparse.train` on the workload's training references;
3. persist: `save_model` / `load_model`;
4. parse: `refparse.cli.run(["parse", ...])` over the held-out A and B
   lines, interleaved, in fixed-size chunk files; the output is read back,
   checked against the input tokens and scored against gold;
5. curve: `experiments.size_curve` into one directory, whose CSVs and
   manifest must come out byte-identical on every repeat.

After this first pass, the run keeps sampling until `--seconds` have passed
since it started: rounds of one set-up, parse calls, curve repeats and a
retraining, the last two until the workload has its runs of each; then one
closing set-up.

The shared machine runs the same code up to twice as slowly at times, in
bursts of seconds and in spells of minutes. So every timed sample is scaled
to a reference speed, measured by a fixed computation that a timer runs all
through the run, and repeated samples report their lower quartile (see
README.md).

All inputs derive from the workload seed; refparse only sees the generated
files and corpora.
"""

from __future__ import annotations

import contextlib
import hashlib
import resource
import shutil
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import refparse as rp
from refparse import cli, experiments, optim
from refparse.errors import RefparseError
from refparse.labels import check_iob2

from tracing import Tracer, patched


@dataclass(frozen=True)
class Scale:
    """Input sizes shared by all workloads."""

    records: int = 500
    refs_a: int = 2600
    train_refs: int = 2000  # of refs_a; the rest is the in-family eval set
    refs_b: int = 600
    chunk_lines: int = 300  # lines per `refparse parse` call
    parse_calls: int = 6  # warm parse calls per sampling round, in two halves
    min_rounds: int = 1  # sampling rounds after the first pass, whatever --seconds says
    micro_repeats: int = 3  # timed calls per per-layer micro-timing
    warmup_calls: int = 50  # untimed decode/predict calls before percentiles


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    train_refs: int  # references the timed model is trained on
    trainings: int  # timed trainings: the first pass's, then one per round until reached
    curve_sizes: tuple[int, ...]
    curve_eval_refs: int  # refs per family the curve evaluates on
    curve_runs: int  # size_curve runs: the first pass's, then one per round until reached
    f1_floors: bool  # in-family F1 >= 0.85 and in - out >= 0.02


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-2k",
            "acceptance scale: one training on 2000 refs dominates, so forward-backward"
            " and optimizer changes show; parse and curve are small",
            2000, 1, (50,), 50, 5, True,
        ),
        Workload(
            "curve-small",
            "size_curve 125/250/500 on 150 A + 150 B refs, twice, and 250-ref retrainings:"
            " small trainings and in-memory predictions, so experiments and fixed costs show",
            250, 8, (125, 250, 500), 150, 2, False,
        ),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "pipeline_s": "s",
    "parse_refs_per_s": "1/s",
    "experiment_s": "s",
    "field_macro_f1_in": "f1",
    "field_macro_f1_out": "f1",
    "peak_rss_mb": "MB",
}


@dataclass
class Accounting:
    """Operations attempted and failed: one parsed line, one trained model or
    one curve cell each. A RefparseError or a failed check is a failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int = 0, problem: str | None = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if problem:
            self.problems.append(problem)


@dataclass
class Inputs:
    train: rp.Corpus
    eval_a: rp.Corpus
    eval_b: rp.Corpus
    paths: dict[str, Path]


# The reference computation: fixed work of the kinds refparse does, touching
# no refparse code: pure-Python string/dict work, numpy log-sum-exp
# recursions on small arrays, and passes over an array well beyond the
# per-core caches. Co-tenants slow these by different amounts (the last one
# tracks slowdowns of the forward-backward work that the first two miss), so
# all three are timed together. REFERENCE_S is their time on the 2-core
# machine the benchmark was built on, in that machine's fast state.
_REF_WORDS = tuple(f"w{i % 97}x{i % 13}" for i in range(4000))
_REF_ARRAYS = np.random.default_rng(0).standard_normal((40, 20, 20))
_REF_BIG = np.random.default_rng(1).standard_normal(2_000_000)  # 16 MB
REFERENCE_S = 0.022


def reference_seconds() -> float:
    t0 = time.perf_counter()
    for _ in range(4):
        counts: dict[str, int] = {}
        for tok in " ".join(_REF_WORDS).split():
            key = tok.upper()[:4]
            counts[key] = counts.get(key, 0) + 1
    for _ in range(2):
        alpha = _REF_ARRAYS[0]
        for step in _REF_ARRAYS[1:]:
            alpha = np.logaddexp.reduce(alpha[:, :, None] + step[None, :, :], axis=1)
            alpha -= alpha.max()
    for _ in range(2):
        _REF_BIG.sum()
        np.exp(_REF_BIG[::4]).max()
    return time.perf_counter() - t0


class Speed:
    """Samples the machine's speed all through a run.

    While entered, a timer signal runs the reference computation every
    `period_s` seconds in the main thread, in between whatever Python code is
    running, including refparse's; every timed sample also probes once just
    after it ends. A sample counts its wall time minus the probes that
    interrupted it, scaled to the reference speed by the mean reference time
    of those probes, the last one before it and the one just after it.
    """

    period_s = 0.5

    def __init__(self):
        self.probes: list[tuple[float, float, float]] = []  # (start, end, reference s)
        self._busy = False

    def probe(self, *_signal) -> None:
        if self._busy:  # the timer fired during a probe
            return
        self._busy = True
        start = time.perf_counter()
        seconds = reference_seconds()
        self.probes.append((start, time.perf_counter(), seconds))
        self._busy = False

    def __enter__(self) -> "Speed":
        reference_seconds()  # warm-up
        self.probe()
        self._handler = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def scale(self, start: float, end: float) -> tuple[float, float]:
        """Wall seconds of a sample that ran from start to end, without the
        probes in it, and those seconds scaled to the reference speed."""
        inside = [p for p in self.probes if start <= p[0] < end]
        before = [p for p in self.probes if p[0] < start][-1:]
        self.probe()
        near = before + inside + self.probes[-1:]
        wall = end - start - sum(e - s for s, e, _ in inside)
        return wall, wall * REFERENCE_S / statistics.fmean(ref for _, _, ref in near)


@dataclass
class RunState:
    """What the stages produced; the per-layer timings reuse it."""

    workload: Workload
    scale: Scale
    seed: int
    work: Path
    inputs: Inputs | None = None
    train_corpus: rp.Corpus | None = None
    model: rp.CrfModel | None = None
    loaded: rp.CrfModel | None = None
    model_path: Path | None = None
    lines: list[str] = field(default_factory=list)
    gold: list[rp.LabeledReference] = field(default_factory=list)
    preds: list[tuple[str, ...]] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    speed: Speed = field(default_factory=Speed)

    def sample(self, name: str, timing: tuple[float, float]) -> float:
        """Record a timing (start, end), as wall time and scaled."""
        wall, scaled = self.speed.scale(*timing)
        self.samples.setdefault(f"{name}_wall", []).append(wall)
        self.samples.setdefault(name, []).append(scaled)
        return scaled


def median(values) -> float:
    return float(statistics.median(values))


def low_quartile(values) -> float:
    """First quartile of repeated timings of the same work. The machine's
    slow bursts only ever add time, so the lower samples move least."""
    values = list(values)
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=4, method="inclusive")[0])


def make_inputs(scale: Scale, seed: int, work: Path, tracer: Tracer) -> Inputs:
    """Generate and round-trip the seed's corpora through inline-XML files."""
    with tracer.span("synthgen.random_records"):
        records = rp.random_records(scale.records, seed)
    with tracer.span("synthgen.generate_corpus", refs=scale.refs_a):
        corpus_a = rp.generate_corpus(
            records, rp.style_family("A"), n=scale.refs_a, seed=seed + 1, name="A"
        )
    with tracer.span("synthgen.generate_corpus", refs=scale.refs_b):
        eval_b = rp.generate_corpus(
            records, rp.style_family("B"), n=scale.refs_b, seed=seed + 2, name="B"
        )
    train, eval_a = rp.split(corpus_a, scale.train_refs / scale.refs_a, seed + 3)
    paths = {name: work / f"{name}.xml" for name in ("train", "eval_a", "eval_b")}
    with tracer.span("corpus.io"):
        for name, corpus in zip(paths, (train, eval_a, eval_b)):
            rp.write_corpus(corpus, paths[name])
        train, eval_a, eval_b = (rp.read_corpus(p, name=n) for n, p in paths.items())
    return Inputs(train=train, eval_a=eval_a, eval_b=eval_b, paths=paths)


def subset(corpus: rp.Corpus, n: int, name: str) -> rp.Corpus:
    return rp.Corpus(name=name, labels=corpus.labels, instances=corpus.instances[:n])


def setup_data(state: RunState, tracer: Tracer) -> tuple[float, float]:
    """Make the inputs; returns when that started and ended."""
    t0 = time.perf_counter()
    with tracer.span("setup"):
        state.inputs = make_inputs(state.scale, state.seed, state.work, tracer)
    timing = t0, time.perf_counter()
    inputs = state.inputs
    # held-out lines alternate in-family (A) and out-of-family (B) references
    pairs = zip(inputs.eval_a.instances, inputs.eval_b.instances)
    state.gold = [inst for pair in pairs for inst in pair]
    state.lines = [inst.raw for inst in state.gold]
    return timing


def train_model(state: RunState, acct: Accounting, tracer: Tracer) -> tuple[float, float]:
    """Train on the workload's references; a retraining must reproduce the
    first model exactly. Returns when `refparse.train` started and ended."""
    state.train_corpus = subset(state.inputs.train, state.workload.train_refs, "train")
    hook = _optim_hook(tracer) if tracer.enabled and state.model is None else contextlib.nullcontext()
    t0 = time.perf_counter()
    with tracer.span("crf.train", refs=len(state.train_corpus)), hook:
        model = rp.train(state.train_corpus)
    timing = t0, time.perf_counter()
    same = state.model is None or all(
        np.array_equal(getattr(model, a), getattr(state.model, a))
        for a in ("emission", "transition", "begin", "end")
    )
    acct.add(1, 0 if same else 1, None if same else "retraining gave different weights")
    if state.model is None:
        state.model = model
    return timing


def _optim_hook(tracer: Tracer):
    """Pass-through around `refparse.optim.minimize` as `refparse.crf` calls
    it: one span per minimize call and per objective evaluation."""

    def make(original):
        def minimize(fun, x0, *args, **kwargs):
            with tracer.span("optim.minimize") as rec:
                result = original(tracer.wrap("optim.objective", fun), x0, *args, **kwargs)
                rec.update(
                    evals=result.n_evals,
                    steps=len(result.log) - 1,
                    converged=int(result.converged),
                )
            return result

        return minimize

    return patched(optim, "minimize", make)


def persist(state: RunState, tracer: Tracer) -> tuple[float, float]:
    state.model_path = state.work / "model.gz"
    t0 = time.perf_counter()
    with tracer.span("crf.save_model"):
        rp.save_model(state.model, state.model_path)
    with tracer.span("crf.load_model"):
        state.loaded = rp.load_model(state.model_path)
    return t0, time.perf_counter()


def check_parse_output(out_path: Path, gold: list[rp.LabeledReference]) -> tuple[list, int, str | None]:
    """Read parse output back as inline XML and check it line by line.

    Returns the predicted tags per gold line (all-O for a failed line), the
    number of failed lines and a description of the first failure.
    """
    blank = [("O",) * len(g.tokens) for g in gold]
    try:
        parsed = rp.read_inline_xml(out_path).instances
    except (OSError, RefparseError) as exc:
        return blank, len(gold), f"{out_path.name}: unreadable parse output: {exc}"
    if len(parsed) != len(gold):
        return blank, len(gold), f"{out_path.name}: {len(parsed)} output lines for {len(gold)} inputs"
    preds, failed, problem = [], 0, None
    for i, (got, want) in enumerate(zip(parsed, gold)):
        try:
            if got.surfaces() != want.surfaces():
                raise ValueError("tokens differ from the input's")
            check_iob2(got.tags)
        except (ValueError, RefparseError) as exc:
            failed += 1
            problem = problem or f"{out_path.name} line {i + 1}: {exc}"
            preds.append(blank[i])
            continue
        preds.append(got.tags)
    return preds, failed, problem


class Parser:
    """Warm `refparse parse` calls over the held-out lines in chunk files.

    The first pass checks and scores every line; later calls take the chunks
    in turn and must reproduce the first pass's bytes.
    """

    def __init__(self, state: RunState):
        self.state = state
        self.chunks: list[tuple[Path, range]] = []
        step = state.scale.chunk_lines
        for i, start in enumerate(range(0, len(state.lines), step)):
            rows = range(start, min(start + step, len(state.lines)))
            path = state.work / f"chunk{i}.txt"
            path.write_text("".join(state.lines[r] + "\n" for r in rows), encoding="utf-8")
            self.chunks.append((path, rows))
        self.first_bytes: dict[int, bytes] = {}
        self.calls: list[tuple[int, float]] = []  # (lines, scaled seconds)
        self.next = 0

    def _call(self, i: int, out_path: Path, tracer: Tracer) -> int:
        in_path, rows = self.chunks[i]
        argv = ["parse", "--model", str(self.state.model_path),
                "--in", str(in_path), "--out", str(out_path)]
        t0 = time.perf_counter()
        with tracer.span("cli.parse"):
            code = cli.run(argv)
        seconds = self.state.sample("parse_call_s", (t0, time.perf_counter()))
        self.calls.append((len(rows), seconds))
        return code

    def first_pass(self, acct: Accounting, tracer: Tracer) -> None:
        """Parse, check and score every line."""
        state = self.state
        state.preds = [()] * len(state.lines)
        for i, (in_path, rows) in enumerate(self.chunks):
            out_path = state.work / f"parsed{i}.xml"
            gold = [state.gold[r] for r in rows]
            if self._call(i, out_path, tracer) != 0:
                preds = [("O",) * len(g.tokens) for g in gold]
                failed, problem = len(rows), f"{in_path.name}: refparse parse failed"
            else:
                preds, failed, problem = check_parse_output(out_path, gold)
                self.first_bytes[i] = out_path.read_bytes()
            acct.add(len(rows), failed, problem)
            for r, p in zip(rows, preds):
                state.preds[r] = p

    def repeat(self, acct: Accounting, tracer: Tracer) -> None:
        i = self.next % len(self.chunks)
        self.next += 1
        out_path = self.state.work / "repeat.xml"
        code = self._call(i, out_path, tracer)
        rows = len(self.chunks[i][1])
        same = code == 0 and out_path.read_bytes() == self.first_bytes.get(i)
        acct.add(rows, 0 if same else rows,
                 None if same else f"chunk{i}: repeated parse differs from the first")

    def refs_per_s(self) -> float:
        """Lines per second at the lower quartile of per-line call times."""
        return 1.0 / low_quartile(seconds / lines for lines, seconds in self.calls)


def score(state: RunState) -> tuple[float, float]:
    """Field macro-F1 of the parse output on the A lines and on the B lines."""
    f1 = []
    for family, corpus in enumerate((state.inputs.eval_a, state.inputs.eval_b)):
        gold = rp.Corpus(name=corpus.name, labels=corpus.labels,
                         instances=tuple(state.gold[family::2]))
        f1.append(rp.evaluate(gold, state.preds[family::2]).field.macro_f1)
    return f1[0], f1[1]


class Curve:
    """size_curve over the workload's sizes, always into one out_dir: every
    repeat must write byte-identical CSVs and manifest."""

    def __init__(self, state: RunState):
        w, inputs = state.workload, state.inputs
        eval_paths = {}
        for name, corpus in (("A", inputs.eval_a), ("B", inputs.eval_b)):
            eval_paths[name] = state.work / f"curve_eval_{name}.xml"
            rp.write_corpus(subset(corpus, w.curve_eval_refs, name), eval_paths[name])
        self.out_dir = state.work / "curve"
        self.plan = experiments.ExperimentPlan(
            trains={"train": str(inputs.paths["train"])},
            evals={name: str(p) for name, p in eval_paths.items()},
            sizes=w.curve_sizes,
            keep_labels=(),
            seed=state.seed,
            out_dir=str(self.out_dir),
        )
        self.cells = len(w.curve_sizes) * len(eval_paths)
        self.digests: list[dict] = []

    def run(self, acct: Accounting, tracer: Tracer) -> tuple[float, float]:
        """One size_curve; returns when it started and ended."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        hooks = _experiment_hooks(tracer) if tracer.enabled else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with hooks, tracer.span("experiments.size_curve"):
                result = experiments.size_curve(self.plan)
            done, problem = len(result.reports), None
        except RefparseError as exc:
            done, problem = 0, f"size_curve failed: {exc}"
        timing = t0, time.perf_counter()
        acct.add(self.cells, self.cells - done, problem)
        outputs = sorted(self.out_dir.iterdir()) if self.out_dir.is_dir() else []
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs}
        if self.digests and digests != self.digests[0]:
            acct.add(0, self.cells, "size_curve outputs differ between repeats")
        self.digests.append(digests)
        return timing


def _experiment_hooks(tracer: Tracer):
    """Spans around the trainings and predictions size_curve makes."""
    stack = contextlib.ExitStack()
    stack.enter_context(patched(experiments, "train", lambda f: tracer.wrap("experiments.train", f)))
    stack.enter_context(
        patched(experiments, "predict_tags", lambda f: tracer.wrap("experiments.predict_tags", f))
    )
    return stack


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pipeline(workload: Workload, scale: Scale, seed: int, seconds: float,
                 work: Path, tracer: Tracer) -> tuple[RunState, Accounting, dict]:
    """Run the first pass, then sampling rounds until `seconds` have passed
    since the start; return the state, the accounting and the end-to-end
    metrics as {name: value}."""
    start = time.perf_counter()
    state = RunState(workload=workload, scale=scale, seed=seed, work=work)
    acct = Accounting()
    s = state.samples
    with state.speed:
        # first pass: the user pipeline, stage by stage
        state.sample("setup_s", setup_data(state, tracer))
        state.sample("train_s", train_model(state, acct, tracer))
        persist_s = state.sample("persist_s", persist(state, tracer))
        parser = Parser(state)
        parser.first_pass(acct, tracer)
        t0 = time.perf_counter()
        with tracer.span("metrics.evaluate"):
            f1_in, f1_out = score(state)
        evaluate_s = state.sample("evaluate_s", (t0, time.perf_counter()))
        if workload.f1_floors and not (f1_in >= 0.85 and f1_in - f1_out >= 0.02):
            acct.add(0, 1, f"F1 floors missed: in {f1_in:.4f}, out {f1_out:.4f}")
        curve = Curve(state)  # after the first training, so the process is warm
        state.sample("experiment_s", curve.run(acct, tracer))

        # sampling rounds: each stage's samples fall in as many of the
        # machine's fast and slow bursts as the run lasts
        rounds = 0
        while rounds < scale.min_rounds or time.perf_counter() - start < seconds:
            state.sample("setup_s", setup_data(state, tracer))
            for _ in range(2):
                for _ in range(scale.parse_calls // 2):
                    parser.repeat(acct, tracer)
                if len(s["experiment_s"]) < workload.curve_runs:
                    state.sample("experiment_s", curve.run(acct, tracer))
            if len(s["train_s"]) < workload.trainings:
                state.sample("train_s", train_model(state, acct, tracer))
            rounds += 1
        # a closing set-up, so that even a one-round run has three samples
        state.sample("setup_s", setup_data(state, tracer))

    s["reference_s"] = [ref for _, _, ref in state.speed.probes]
    refs_per_s = parser.refs_per_s()
    setup_s = median(s["setup_s"])
    train_s = low_quartile(s["train_s"])
    # one pass of the pipeline, each stage at its cost in this run
    pipeline_s = setup_s + train_s + persist_s + len(state.lines) / refs_per_s + evaluate_s
    metrics = {
        "setup_s": setup_s,
        "train_s": train_s,
        "pipeline_s": pipeline_s,
        "parse_refs_per_s": refs_per_s,
        "experiment_s": low_quartile(s["experiment_s"]),
        "field_macro_f1_in": f1_in,
        "field_macro_f1_out": f1_out,
        "peak_rss_mb": peak_rss_mb(),
    }
    return state, acct, metrics
