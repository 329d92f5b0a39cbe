"""Tiny-scale smoke test of the benchmark's own code.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from refparse.corpus import format_inline_xml  # noqa: E402

from layers import PER_LAYER, per_layer_metrics  # noqa: E402
from pipeline import (  # noqa: E402
    END_TO_END_UNITS,
    WORKLOADS,
    Accounting,
    RunState,
    Scale,
    Speed,
    Workload,
    check_parse_output,
    Parser,
    low_quartile,
    run_pipeline,
    setup_data,
)
import pipeline  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY_SCALE = Scale(records=30, refs_a=90, train_refs=60, refs_b=30, chunk_lines=20,
                   micro_repeats=1, warmup_calls=2)
TINY = Workload("tiny", "smoke test", train_refs=40, trainings=99,
                curve_sizes=(20, 40), curve_eval_refs=10, curve_runs=3, f1_floors=False)


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


@pytest.mark.parametrize("trainings,trace", [(99, 1), (2, 0)])
def test_tiny_run_reports_every_metric(tmp_path, trainings, trace):
    workload = replace(TINY, trainings=trainings)
    tracer = Tracer("tiny", enabled=bool(trace))
    state, acct, e2e = run_pipeline(workload, TINY_SCALE, 7, 0.5, tmp_path, tracer)
    assert acct.failed == 0, acct.problems
    assert set(e2e) == set(END_TO_END_UNITS)
    assert all(value > 0 for value in e2e.values())
    rounds = len(state.samples["setup_s"]) - 2  # first pass and closing set-ups
    assert rounds >= TINY_SCALE.min_rounds
    lines = TINY_SCALE.refs_a - TINY_SCALE.train_refs + TINY_SCALE.refs_b
    parsed = lines + TINY_SCALE.parse_calls * rounds * TINY_SCALE.chunk_lines
    trained = len(state.samples["train_s"])
    assert trained == min(1 + rounds, trainings)
    curves = len(state.samples["experiment_s"])
    assert curves == min(1 + 2 * rounds, TINY.curve_runs)
    cells = len(TINY.curve_sizes) * 2 * curves  # two families
    assert acct.attempted == trained + parsed + cells
    if trace:
        layers = per_layer_metrics(state, tracer, ROOT, acct, e2e["pipeline_s"])
        assert set(layers) == set(PER_LAYER)
        assert layers["failed_share"] == 0
        assert layers["optim.evals"] >= layers["optim.steps"] >= 1


def test_low_quartile_ignores_slow_samples():
    assert low_quartile([2.0]) == 2.0
    assert low_quartile([1.0, 1.0, 1.0, 9.0, 9.0]) == 1.0
    assert low_quartile([1.0, 2.0, 3.0, 4.0, 5.0]) == 2.0


def test_speed_drops_and_scales_by_the_probes_around_a_sample(monkeypatch):
    monkeypatch.setattr(pipeline, "reference_seconds", lambda: 9.0)
    speed = Speed()
    speed.probes = [(0.0, 0.1, 1.0), (0.2, 0.3, 2.0), (1.0, 1.1, 4.0), (5.0, 5.1, 8.0)]
    # the probe at 1.0 interrupted the sample; 0.2 came before it; 9 is probed after
    wall, scaled = speed.scale(0.5, 1.5)
    assert wall == pytest.approx(0.9)
    assert scaled == pytest.approx(0.9 * pipeline.REFERENCE_S / 5.0)
    assert len(speed.probes) == 5


def test_speed_samples_while_entered():
    with Speed() as speed:
        end = time.perf_counter() + 3 * speed.period_s
        while time.perf_counter() < end:
            pass
    n = len(speed.probes)
    assert n >= 3
    time.sleep(2 * speed.period_s)
    assert len(speed.probes) == n


def _tiny_state(tmp_path) -> RunState:
    state = RunState(workload=TINY, scale=TINY_SCALE, seed=3, work=tmp_path)
    setup_data(state, Tracer("tiny", enabled=False))
    return state


def test_parse_check_counts_each_bad_line(tmp_path):
    state = _tiny_state(tmp_path)
    gold = state.gold[:3]
    out = tmp_path / "out.xml"
    out.write_text("".join(format_inline_xml(g) + "\n" for g in gold), encoding="utf-8")
    preds, failed, problem = check_parse_output(out, gold)
    assert (failed, problem) == (0, None)
    assert preds == [g.tags for g in gold]

    lines = out.read_text(encoding="utf-8").splitlines()
    lines[1] = "X " + lines[1]  # one extra token on the second line
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    preds, failed, problem = check_parse_output(out, gold)
    assert failed == 1 and "line 2" in problem
    assert preds[1] == ("O",) * len(gold[1].tokens)

    out.write_text("\n".join(lines[:2]) + "\n", encoding="utf-8")
    assert check_parse_output(out, gold)[1] == 3
    out.write_text("<title>unclosed\n" * 3, encoding="utf-8")
    assert check_parse_output(out, gold)[1] == 3


def test_failed_parse_calls_fail_their_lines(tmp_path):
    state = _tiny_state(tmp_path)
    state.model_path = tmp_path / "not-a-model.gz"
    state.model_path.write_text("{}", encoding="utf-8")
    acct = Accounting()
    Parser(state).first_pass(acct, Tracer("tiny", enabled=False))
    assert acct.attempted == acct.failed == len(state.lines)
    assert "refparse parse failed" in acct.problems[0]


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-2k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
