"""Compare a base commit with the working tree in one interleaved benchmark
run, and write COMPARE_<name>.json.

    python3 tools/bench_compare.py HEAD~1 mychange
    python3 tools/bench_compare.py HEAD ci --workload tiling --rounds 1 --seconds 1

Builds two fresh trees in a temporary directory: <base-ref>'s src and
perfbench from ``git archive``, and the working tree's src and perfbench
copied without __pycache__, as tools/bench_record.py copies them.  For each
workload of BENCHMARK.json (or the one --workload names), each seed and
each of K rounds it runs both trees' perfbench/run.py untraced, one
process at a time under PYTHONDONTWRITEBYTECODE=1, so both sides compile
their sources and neither reads stale bytecode.  The pairs alternate which
side runs first, base-change then change-base (ABBA), from one pair to the
next and, for each workload and seed, from one round to the next, and the
two trees' paths have one length, so that neither the order nor the path
favours a side: with both fixed per workload and seed, one tree against
itself read `tiling` 6-7% faster on the side that ran second.

Prints, for each workload, seed and end-to-end metric, the base's and the
change's median with its quartiles, the ratio of the medians (change over
base) and the rounds in which the change read better, by the metric's own
direction; a tie is no win.  Writes the same, with every run's metrics, to
COMPARE_<name>.json at the root of the checkout.  The name never matches
BENCH_*.json, the glob of the committed records.  Exits 1 when a run is not
correct or lacks an end-to-end metric.

Run with the base at HEAD on an unchanged tree, it compares a tree with
itself: that A/A run is the noise floor a claimed gain must clear.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

from bench_record import ROOT, SEEDS, copy_tree, run


def git(*args) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], stdout=subprocess.PIPE,
                          check=True).stdout


def export(ref, tree):
    """Write ref's src and perfbench into tree."""
    os.mkdir(tree)
    subprocess.run(["tar", "-x", "-C", tree], input=git("archive", ref, "src", "perfbench"),
                   check=True)


def quartiles(values):
    """(q1, median, q3) of the values, inclusive quantiles."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs, metrics, rounds):
    """One line per workload, seed and metric of the pairs, in their order."""
    out = []
    for workload, seed in dict.fromkeys((p["workload"], p["seed"]) for p in pairs):
        mine = [p for p in pairs if (p["workload"], p["seed"]) == (workload, seed)]
        for m in metrics:
            name, sign = m["name"], 1 if m["better"] == "higher" else -1
            base = [p["base"][name] for p in mine]
            change = [p["change"][name] for p in mine]
            bq, cq = quartiles(base), quartiles(change)
            out.append(dict(
                workload=workload, seed=seed, metric=name, unit=m["unit"],
                better=m["better"], base=dict(zip(("q1", "median", "q3"), bq)),
                change=dict(zip(("q1", "median", "q3"), cq)),
                ratio=cq[1] / bq[1] if bq[1] else None,
                wins=sum(sign * (c - b) > 0 for b, c in zip(base, change)), rounds=rounds))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base_ref")
    ap.add_argument("name", help="the output is COMPARE_<name>.json")
    ap.add_argument("--workload", help="one workload of BENCHMARK.json; default all")
    ap.add_argument("--rounds", type=int, default=5, help="pairs per workload and seed")
    ap.add_argument("--seconds", type=float, default=4.0, help="timed seconds per run")
    args = ap.parse_args(argv)
    if not re.fullmatch(r"[\w.-]+", args.name):
        ap.error("name must be letters, digits, '_', '.' or '-'")
    if args.rounds < 1 or not args.seconds > 0:
        ap.error("--rounds and --seconds must be positive")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload is not None:
        if args.workload not in workloads:
            ap.error("unknown workload %r" % args.workload)
        workloads = [args.workload]
    metrics = bench["end_to_end"]
    base_sha = git("rev-parse", "--verify", args.base_ref + "^{commit}").decode().strip()
    head_sha = git("rev-parse", "HEAD").decode().strip()

    failed = False
    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"base": os.path.join(tmp, "base"), "change": os.path.join(tmp, "work")}
        export(base_sha, trees["base"])
        copy_tree(trees["change"])
        keys = [(w, seed) for w in workloads for seed in SEEDS]
        for r in range(args.rounds):
            for i, (workload, seed) in enumerate(keys):
                order = ("base", "change") if (r + i) % 2 == 0 else ("change", "base")
                pair = dict(workload=workload, seed=seed, round=r, first=order[0])
                for side in order:
                    record, entry = run(workload, seed, 0, args.seconds, trees[side])
                    values = {m["name"]: entry["metrics"].get(m["name"], {}).get("value")
                              for m in metrics}
                    if not entry["correct"] or None in values.values():
                        print("%s seed %d, %s: the run is not correct or lacks a metric"
                              % (workload, seed, side), file=sys.stderr)
                        failed = True
                    pair[side] = values
                pairs.append(pair)
                print(json.dumps(pair), flush=True)
    if failed:
        return 1

    summary = summarize(pairs, metrics, args.rounds)
    for s in summary:
        b, c = s["base"], s["change"]
        print("%-8s %-8d %-15s %.6g [%.6g..%.6g] -> %.6g [%.6g..%.6g]  x%s  %d/%d better"
              % (s["workload"], s["seed"], s["metric"], b["median"], b["q1"], b["q3"],
                 c["median"], c["q1"], c["q3"],
                 "-" if s["ratio"] is None else "%.4f" % s["ratio"], s["wins"], s["rounds"]))
    out = dict(name=args.name, base=base_sha, head=head_sha,
               dirty=bool(git("status", "--porcelain", "--", "src", "perfbench").strip()),
               python=record["python"], numpy=record["numpy"], nproc=record["nproc"],
               rounds=args.rounds, seconds=args.seconds, seeds=list(SEEDS),
               workloads=workloads, summary=summary, pairs=pairs)
    with open(os.path.join(ROOT, "COMPARE_%s.json" % args.name), "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
