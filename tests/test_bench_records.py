"""The committed benchmark records, BENCH_<pr>.json, have the shape that
tools/bench_record.py writes: every workload on both seeds, untraced and
traced, with every end-to-end metric of BENCHMARK.json.  The committed
comparisons, COMPARE_<name>.json, have the shape that tools/bench_compare.py
writes.  Reads files only."""

import glob
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 20261018)
RECORDS = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
COMPARISONS = sorted(glob.glob(os.path.join(ROOT, "COMPARE_*.json")))

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_a_record_has_every_workload_seed_and_metric(path):
    with open(path) as f:
        rec = json.load(f)
    assert os.path.basename(path) == "BENCH_%d.json" % rec["pr"]
    assert isinstance(rec["python"], str) and isinstance(rec["numpy"], str)
    assert isinstance(rec["nproc"], int) and rec["nproc"] >= 1
    assert rec["run_seconds"] == BENCHMARK["run_seconds"]
    runs = {(r["workload"], r["seed"], r["trace"]): r for r in rec["runs"]}
    want = {(w["name"], seed, trace) for w in BENCHMARK["workloads"]
            for seed in SEEDS for trace in (0, 1)}
    assert set(runs) == want and len(rec["runs"]) == len(want)
    for (workload, seed, trace), r in runs.items():
        assert r["correct"] is True, (workload, seed, trace)
        assert r["slowdown"] > 0
        if trace == 0:
            for m in BENCHMARK["end_to_end"]:
                got = r["metrics"][m["name"]]
                assert got["unit"] == m["unit"], (workload, seed, m["name"])
                assert isinstance(got["value"], (int, float))


def test_comparisons_are_committed():
    assert COMPARISONS


@pytest.mark.parametrize("path", COMPARISONS, ids=os.path.basename)
def test_a_comparison_summarizes_its_interleaved_pairs(path):
    with open(path) as f:
        rec = json.load(f)
    assert os.path.basename(path) == "COMPARE_%s.json" % rec["name"]
    assert isinstance(rec["python"], str) and isinstance(rec["numpy"], str)
    assert isinstance(rec["nproc"], int) and rec["nproc"] >= 1
    assert len(rec["base"]) == len(rec["head"]) == 40
    if rec["name"] == "aa":
        # the noise floor: the base at HEAD against the unchanged tree
        assert rec["base"] == rec["head"] and rec["dirty"] is False
    assert rec["seeds"] == list(SEEDS) and rec["seconds"] > 0
    rounds, workloads = rec["rounds"], rec["workloads"]
    assert rounds >= 1 and workloads
    assert set(workloads) <= {w["name"] for w in BENCHMARK["workloads"]}
    metrics = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    # every pair ran both sides; the first side alternates from pair to
    # pair, and for each workload and seed from round to round
    pairs = rec["pairs"]
    keys = [(w, seed) for w in workloads for seed in SEEDS]
    assert [(p["round"], p["workload"], p["seed"]) for p in pairs] == [
        (r, *key) for r in range(rounds) for key in keys]
    assert [p["first"] for p in pairs] == [
        "change" if (r + i) % 2 else "base" for r in range(rounds) for i in range(len(keys))]
    for p in pairs:
        for side in ("base", "change"):
            assert set(p[side]) == set(metrics)
            assert all(isinstance(v, (int, float)) for v in p[side].values())
    # one summary line per workload, seed and metric, read off the pairs
    summary = {(s["workload"], s["seed"], s["metric"]): s for s in rec["summary"]}
    assert len(summary) == len(rec["summary"]) == len(workloads) * len(SEEDS) * len(metrics)
    for (workload, seed, name), s in summary.items():
        mine = [p for p in pairs if (p["workload"], p["seed"]) == (workload, seed)]
        assert s["unit"] == metrics[name]["unit"] and s["better"] == metrics[name]["better"]
        for side in ("base", "change"):
            values = sorted(p[side][name] for p in mine)
            q = s[side]
            assert values[0] <= q["q1"] <= q["median"] <= q["q3"] <= values[-1]
        if s["base"]["median"]:
            assert s["ratio"] == pytest.approx(s["change"]["median"] / s["base"]["median"])
        sign = 1 if s["better"] == "higher" else -1
        wins = sum(sign * (p["change"][name] - p["base"][name]) > 0 for p in mine)
        assert s["wins"] == wins and s["rounds"] == rounds == len(mine)
