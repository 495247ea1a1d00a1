"""Tests of the benchmark itself, at smoke sizes that run in seconds.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402

SMOKE = {
    "call": {"cli": ["verify", "--checks", "golden,symmetry,marginals", "--n-max", "3"]},
    "outputs": {"matrices": 3, "row_sums": 3, "census_cells": 3},
}
REFERENCES = json.loads(run.REFERENCES.read_text())
CONTRACT = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def fail_ratio(outcome):
    return outcome["failed"] / outcome["attempted"]


def test_smoke_pass_is_clean():
    outcome = run.run(SMOKE, seed=1, seconds=0, trace=False, references=REFERENCES)
    assert outcome["attempted"] > 10
    assert fail_ratio(outcome) == 0, outcome["problems"]
    metrics = run.end_to_end_metrics(outcome["samples"])
    assert set(metrics) == {m["name"] for m in CONTRACT["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


def test_wrong_reference_digest_counts_as_failure():
    wrong = dict(REFERENCES, **{"matrix_json_sha256/2": "0" * 64})
    outcome = run.run(SMOKE, seed=1, seconds=0, trace=False, references=wrong)
    assert fail_ratio(outcome) > 0
    assert any("matrix_json_sha256/2" in p for p in outcome["problems"])


def test_missing_reference_counts_as_failure():
    spec = {"call": {"tangent": 4}, "outputs": {}}  # only count 20 is recorded
    outcome = run.run(spec, seed=1, seconds=0, trace=False, references=REFERENCES)
    assert outcome["failed"] == 1
    assert "tangent_json_sha256/4" in outcome["problems"][0]


def test_failing_check_counts_as_failure(monkeypatch):
    import poupard.verify
    from poupard.delta import build_matrix

    monkeypatch.setattr(poupard.verify, "load_fixture_matrix", lambda n: build_matrix(n + 1))
    sample = worker.run_pass(SMOKE, "plain", seed=1, index=0)
    assert sample["exit_code"] == 1
    attempted, failed, problems = run.score(SMOKE, sample, REFERENCES)
    assert failed == 3  # golden/matrix for n = 1, 2, 3
    assert "verification checks failed" in problems[0]


@pytest.mark.parametrize(
    "call",
    [
        {"cli": ["verify", "--checks", ""]},  # exits 0 having run nothing
        {"cli": ["verify", "--n-max", "0"]},  # usage error, exit 2
        {"tangent": 0},  # raises inside the timed call
    ],
)
def test_pass_without_checks_or_crashing_counts_as_failure(call):
    outcome = run.run({"call": call, "outputs": {}}, 1, 0, False, REFERENCES)
    assert fail_ratio(outcome) > 0


def test_oracle_mismatch_counts_as_failure():
    sample = {"mode": "plain", "oracle": [("x", "1", "1"), ("y", "2", "3")]}
    assert run.score({"call": {"tangent": 2}}, sample, {})[:2] == (2, 1)


def test_nested_spans_give_self_time():
    ticks = iter([0.0, 1.0, 3.0, 5.0, 6.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.traced("b.inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.traced("a.outer", body)()
    summary = tracer.summary()
    assert summary["names"]["a.outer"] == {"calls": 1, "total_s": 10.0, "self_s": 7.0}
    assert summary["names"]["b.inner"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}
    assert summary["layers"] == {"a": 7.0, "b": 3.0}  # adds up to the root span


def test_traced_generator_counts_items_and_busy_time():
    ticks = iter([0.0, 0.0, 1.0, 2.0, 4.0, 6.0, 9.0, 10.0, 20.0])
    tracer = Tracer(clock=lambda: next(ticks))
    outer = tracer.traced("a.outer", lambda: list(gen()))
    gen = tracer.traced_generator("b.gen", lambda: iter("xy"), "items")
    assert outer() == ["x", "y"]
    summary = tracer.summary()
    # three next() calls busy for 1 + 2 + 1 seconds inside a 20 s span
    assert summary["names"]["b.gen"]["total_s"] == 4.0
    assert summary["names"]["a.outer"]["self_s"] == 16.0
    assert summary["counts"] == {"items": 2}


def test_traced_run_reports_every_layer_metric():
    outcome = run.run(SMOKE, seed=2, seconds=0, trace=True, references=REFERENCES)
    assert fail_ratio(outcome) == 0, outcome["problems"]
    assert {s["mode"] for s in outcome["samples"]} == {"plain", "trace", "count"}
    metrics = run.per_layer_metrics(outcome["samples"])
    assert set(metrics) == {m["name"] for m in CONTRACT["per_layer"]}
    for spec in CONTRACT["per_layer"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
    assert metrics["verify.checks"]["value"] == 5 + 3 + 5  # golden, symmetry, marginals
    assert metrics["trace.accounted_ratio"]["value"] == pytest.approx(1.0, abs=0.01)
    assert metrics["scalars.mul_calls"]["value"] == 0  # no series in this smoke run


def test_wrappers_are_removed_after_the_pass():
    import poupard.cli
    import poupard.verify

    before = (poupard.cli.main, poupard.verify.build_matrix)
    worker.run_pass(SMOKE, "trace", seed=1, index=0)
    assert (poupard.cli.main, poupard.verify.build_matrix) == before


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tangent-20", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
