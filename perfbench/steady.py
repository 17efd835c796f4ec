#!/usr/bin/env python3
"""Steadiness runner for the pipeline benchmark.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b,c] [--seed-base N]
                                [--json OUT] [--compare EARLIER.json]

Runs each workload --runs times, each time with another seed, alternating
the order of the workloads between passes, and prints for every end-to-end
metric the median, the quartiles (statistics.quantiles(values, n=4)), the
spread (Q3 - Q1) / median, and the bound from BENCHMARK.json next to it.
Also checks that the share of failed operations is the same in every run
of a workload. With --compare, it also prints how far each median moved
in the worse direction from the set saved in EARLIER.json, as a share of
the earlier median. Run it from the repository root; with --json the raw
results are written out as well.

setup_s is one cold set-up per run. Its bound applies to that median shift
between two sets, not to its spread within a set, which is printed apart.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    wall = time.monotonic() - t0
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd), proc.returncode))
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["seed"] = seed
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--json", default="")
    ap.add_argument("--compare", default="")
    args = ap.parse_args()

    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower_better = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            r = one_run(w, args.seed_base + i, args.seconds)
            results[w].append(r)
            print("run %2d %-12s seed %d: correct=%s attempted=%d failed=%d wall %.1fs" % (
                i, w, r["seed"], r["correct"], r["attempted"], r["failed"], r["wall_s"]),
                flush=True)

    worst_spread = 0.0
    worst_shift = 0.0
    setup_spreads = []
    for w in workloads:
        runs = results[w]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print("\n%s: %d runs, all correct: %s, failed shares: %s, wall median %.1fs" % (
            w, len(runs), all(r["correct"] for r in runs), sorted(shares),
            statistics.median(r["wall_s"] for r in runs)))
        print("  %-24s %14s %14s %14s %8s %8s %6s" % (
            "metric", "median", "Q1", "Q3", "spread", "shift", "bound"))
        for name in sorted(runs[0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            bound = bounds[name]
            if name == "setup_s":
                setup_spreads.append((w, spread))
            else:
                worst_spread = max(worst_spread, spread / bound)
            shift = ""
            if w in earlier:
                before = statistics.median(r["metrics"][name]["value"] for r in earlier[w])
                moved = (med - before) / before if lower_better[name] else (before - med) / before
                worst_shift = max(worst_shift, moved / bound)
                shift = "%.4f" % moved
            print("  %-24s %14.6g %14.6g %14.6g %8.4f %8s %6.2f" % (
                name, med, q1, q3, spread, shift, bound))
    print("\nlargest spread / bound, every end-to-end metric but setup_s: %.3f" % worst_spread)
    print("setup_s spreads (one cold set-up per run; not held to the bound): %s" % ", ".join(
        "%s %.3f" % ws for ws in setup_spreads))
    if earlier:
        print("largest median shift / bound against %s, every end-to-end metric: %.3f" % (
            args.compare, worst_shift))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)


if __name__ == "__main__":
    main()
