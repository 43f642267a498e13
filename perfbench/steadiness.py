#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs per workload, compared.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b] [--trace 0]

Each set runs every workload once per seed (set A seeds 1..N, set B seeds
N+1..2N).  For every metric it prints each set's median and quartiles, the
spread (Q3 - Q1) / median, and the difference of the two medians as a share
of set A's median, and flags a spread or difference above the metric's
bound in BENCHMARK.json.  Exits 1 when a run fails or is incorrect.
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


def run_once(workload, seed, seconds, trace):
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - t0
    return result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for s in range(2):
            runs = []
            for i in range(args.runs):
                r = run_once(workload, s * args.runs + i + 1, spec["run_seconds"], args.trace)
                ok &= r["correct"]
                runs.append(r)
            sets.append(runs)
        walls = [r["wall_s"] for s in sets for r in s]
        print(f"== {workload}: {args.runs} runs per set, "
              f"correct {all(r['correct'] for s in sets for r in s)}, "
              f"wall s per run: median {statistics.median(walls):.1f}, "
              f"max {max(walls):.1f}")
        print(f"{'metric':34} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'diff':>8} {'bound':>6}")
        for name in sorted(sets[0][0]["metrics"]):
            bound = bounds.get(name)
            meds = []
            for k, runs in enumerate(sets):
                med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in runs])
                meds.append(med)
                diff = (meds[-1] - meds[0]) / meds[0] if meds[0] else 0.0
                flag = ""
                if bound is not None and spread > bound:
                    flag += " SPREAD"
                if bound is not None and abs(diff) > bound:
                    flag += " DIFF"
                print(f"{name:34} {'AB'[k]:>3} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:8.2%} {diff:8.2%} {bound if bound is not None else '':>6}{flag}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
