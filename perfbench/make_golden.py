#!/usr/bin/env python3
"""Regenerates perfbench/golden.txt from the current program.

    python3 perfbench/make_golden.py [--jobs 3]

Records, for every workload and every golden seed, the machine-clock and
count values of one round (compared exactly by the benchmark) and the
baseline-model costs (compared within a relative tolerance).  Run it only
when a change is meant to alter simulated results, and say so in the
change: a change that only speeds up the simulator must leave the file
as it is.
"""
import argparse
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

SEEDS = list(range(64)) + [7777]  # 7777: the self-test's held-out seed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--jobs", type=int, default=3)
    args = ap.parse_args()
    run.build()
    workloads = ["paper_figs", "plan_lint", "pim_queries", "pim_faulty"]
    jobs = [(w, s) for w in workloads for s in SEEDS]

    def one(job):
        w, s = job
        out = subprocess.run([run.BINARY, "--write-golden", "--workload", w,
                              "--seed", str(s)], capture_output=True, text=True)
        if out.returncode:
            raise SystemExit(f"{w} seed {s}: {out.stderr.strip()}")
        return out.stdout

    with ThreadPoolExecutor(args.jobs) as pool:
        parts = list(pool.map(one, jobs))
    with open(run.GOLDEN, "w") as f:
        f.write("# perfbench golden values: <workload> <seed> <key> <value>\n"
                "# Regenerate with: python3 perfbench/make_golden.py\n")
        f.writelines(parts)


if __name__ == "__main__":
    main()
