#!/usr/bin/env python3
"""Regenerate perfbench/baseline.json: two sets of untraced runs of every
workload, ten seeds each, and one traced run per workload.

    python3 perfbench/baseline.py [--sets 11-20,21-30] [--trace-seed 1] [--reuse]

Run it from the root of the repository. It runs `perfbench/run.py` for
every seed of the first set on every workload, then for every seed of the
second set, so the two sets are apart in time as two separate
measurements of one commit would be (with --reuse it reads the results
runs already left in perfbench/out/). Per end-to-end metric and set it
records the median, the quartiles (as Python's statistics.quantiles gives
them), their distance as a share of the median, and every value; then how
far the second set's median is worse than the first's, as a share of the
first, and whether spreads and that change stay within the metric's
bound. The traced per-layer metrics and the runs' provenance go next to
them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def result(workload, seed, trace, seconds, reuse):
    """The results-file record of one run, running it unless reused."""
    path = os.path.join(HERE, "out", f"{workload}-s{seed}-t{trace}.json")
    if not (reuse and os.path.exists(path)):
        cmd = ["python3", os.path.join("perfbench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        if subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL).returncode != 0:
            sys.exit(f"baseline: {workload} seed {seed} trace {trace} failed")
    with open(path) as f:
        return json.load(f)


def seed_range(text):
    lo, hi = (int(x) for x in text.split("-"))
    return list(range(lo, hi + 1))


def summary(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": xs}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", default="11-20,21-30")
    ap.add_argument("--trace-seed", type=int, default=1)
    ap.add_argument("--reuse", action="store_true")
    args = ap.parse_args()
    sets = [seed_range(s) for s in args.sets.split(",")]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    runs = {w: [] for w in names}
    for seeds in sets:
        for w in names:
            got = [result(w, s, 0, seconds, args.reuse) for s in seeds]
            if not all(r["result"]["correct"] for r in got):
                sys.exit(f"baseline: a {w} run was not correct")
            runs[w].append(got)
    out = {"sets": args.sets, "run_seconds": seconds, "workloads": {}}
    for w in names:
        e2e = {}
        for m in bench["end_to_end"]:
            per_set = [summary([r["result"]["metrics"][m["name"]]["value"] for r in rs])
                       for rs in runs[w]]
            first, last = per_set[0]["median"], per_set[-1]["median"]
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (last - first) / first
            spreads_ok = m["name"] == "setup_s" or all(s["spread"] <= m["bound"] for s in per_set)
            e2e[m["name"]] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                              "sets": per_set, "second_median_worse_by": worse,
                              "within_bound": spreads_ok and worse <= m["bound"]}
        traced = result(w, args.trace_seed, 1, seconds, args.reuse)
        out["workloads"][w] = {
            "provenance": runs[w][0][0]["provenance"],
            "end_to_end": e2e,
            "traced": {"provenance": traced["provenance"],
                       "metrics": traced["result"]["metrics"]},
        }
    with open(os.path.join(HERE, "baseline.json"), "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
