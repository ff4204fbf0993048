"""The committed benchmark records, BENCH_<pr>.json, have the shape that
tools/bench_record.py writes: every workload on both seeds, untraced and
traced, with every end-to-end metric of BENCHMARK.json.  Reads files only."""

import glob
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 20261018)
RECORDS = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))

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
