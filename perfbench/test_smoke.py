"""Smoke test of the benchmark itself (not part of the library's suite).

    python3 -m pytest -q perfbench

Runs each workload at minimal length (MIN_OPS ops, about a minute in all),
checks that a wrong expected answer is counted as a failure, and checks the
traced mode's per-layer metrics.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
import run  # noqa: E402
import runner  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))


def bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_each_workload_emits_every_end_to_end_metric(workload):
    res = bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", "0")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= runner.MIN_OPS
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_wrong_expected_answer_counts_as_failed(monkeypatch):
    w = workloads.Queries(workloads.Queries.make_inputs(3))
    monkeypatch.setattr(workloads, "CIRCLE_LENGTH", workloads.CIRCLE_LENGTH + 1.0)
    times, oks, witnesses, _ = runner.run_loop(w, 3, max_ops=2)
    summary = runner.summarize(times, oks)
    assert summary["attempted"] == 2 and summary["failed"] == 2
    assert summary["latency_p50_us"] == runner.FAILED
    assert [x["op"] for x in witnesses] == [0, 1]
    assert "circle length" in witnesses[0]["error"]
    assert witnesses[0]["input"]["script"] == 0


def test_traced_mode_emits_every_per_layer_metric():
    res = bench("--workload", "tiling", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert res["correct"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["honeycomb.verify_tiling.calls"] == workloads.Tiling.trace_ops
    assert m["honeycomb.verify_tiling.rows_per_s.n9"] > 0
    assert m["honeycomb.neighbors.calls"] == 0
    assert 0.9 < m["trace.coverage"] <= 1.0
    assert m["host.slowdown"] > 0 and m["host.raw_ops_per_s"] > 0


def test_tracer_counts_nested_calls_and_restores_attributes():
    originals = [vars(owner)[attr] for owner, attr, _ in layers.TARGETS]
    w = workloads.Queries(workloads.Queries.make_inputs(3))
    tracer = layers.Tracer()
    tracer.install()
    w.tracer = tracer
    try:
        times, oks, _, _ = runner.run_loop(w, 3, max_ops=1)
    finally:
        tracer.restore()
    assert all(oks)
    assert [vars(owner)[attr] for owner, attr, _ in layers.TARGETS] == originals
    m = {k: v for k, (v, _) in tracer.metrics().items()}
    q = workloads.Queries
    assert m["honeycomb.locate.calls"] == len(q.INTERIOR_DIMS) * q.N_INTERIOR + len(
        q.ON_INTEGER_DIMS) * q.N_ON_INTEGER
    assert m["honeycomb.locate_bruteforce.calls"] == len(q.ON_INTEGER_DIMS) * q.N_ON_INTEGER
    assert m["core.dist.calls"] == q.N_PAIRS
    assert m["ball.hrep.calls"] > m["honeycomb.neighbors.calls"] == len(q.NEIGHBOR_DIMS)
    assert m["honeycomb.locate.self_s"] < tracer.busy_s["honeycomb.locate"]
    assert tracer.top_busy_s <= times[0]


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tiling", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
