#!/usr/bin/env python3
"""Steadiness check: runs two independent sets of benchmark runs of the same
build and reports, for every end-to-end metric and workload, the run-to-run
spread of each set and whether the two medians agree within the metric's
bound from BENCHMARK.json.

    python3 perfbench/steadiness.py                 # 2 sets x 10 runs, all workloads
    python3 perfbench/steadiness.py --runs 5 --workloads saturation

Every run uses its own seed (set s, run i -> seed first_seed + s*runs + i);
within a set the workloads take turns, so slow drift of the host lands on
all of them alike.  A metric passes when each set's spread (interquartile
range over median, statistics.quantiles(n=4)) is within its bound and the
second set's median is not worse than the first's by more than the bound;
the failed-operation share must be identical across sets.  setup_s is one
cold set-up of a few milliseconds per run, so its spread is shown but not
held to the bound; its median agreement is.
Exits 1 when anything fails.  Raw results go to .bench_run/steadiness.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("steadiness: %s seed %d exited %d" % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("steadiness: %s seed %d reported incorrect output" % (workload, seed))
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]

    results = {}  # (set, workload) -> [result]
    for s in range(2):
        for i in range(args.runs):
            seed = args.first_seed + s * args.runs + i
            for w in workloads:
                r = run_once(w, seed, args.seconds)
                results.setdefault((s, w), []).append(r)
                print("set %d seed %3d %-12s %s" % (s, seed, w, " ".join(
                    "%s=%.6g" % (m["name"], r["metrics"][m["name"]]["value"]) for m in metrics)),
                    flush=True)
    os.makedirs(os.path.join(ROOT, ".bench_run"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_run", "steadiness.json"), "w") as f:
        json.dump({"%d/%s" % k: v for k, v in results.items()}, f, indent=1)

    ok = True
    print("\n%-12s %-18s %8s %12s %8s %12s %8s %s" % (
        "workload", "metric", "bound", "median1", "spread1", "median2", "spread2", "verdict"))
    for w in workloads:
        shares = {s: sum(r["failed"] for r in results[(s, w)]) /
                  sum(r["attempted"] for r in results[(s, w)]) for s in range(2)}
        if len(set(shares.values())) != 1:
            ok = False
            print("%-12s failed share differs between sets: %s" % (w, shares))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds, spreads, verdict = [], [], "ok"
            for s in range(2):
                values = [r["metrics"][name]["value"] for r in results[(s, w)]]
                meds.append(statistics.median(values))
                spreads.append(spread(values))
                if name != "setup_s" and spreads[-1] > bound:
                    verdict = "SPREAD"
            worse = (meds[1] - meds[0]) / meds[0]
            if m["better"] == "higher":
                worse = -worse
            if worse > bound:
                verdict = "DRIFT"
            ok = ok and verdict == "ok"
            print("%-12s %-18s %8.3f %12.6g %8.4f %12.6g %8.4f %s" % (
                w, name, bound, meds[0], spreads[0], meds[1], spreads[1], verdict))
    print("steady" if ok else "NOT STEADY")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
