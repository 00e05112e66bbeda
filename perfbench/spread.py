#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py WORKLOAD SEEDS [SECONDS] [TRACE]

SEEDS is a comma-separated list (e.g. 1,2,3,4,5). For every end-to-end
metric it prints the median over the runs and the distance between the
first and third quartile as a share of the median, the figure a
benchmark bound must exceed. Run from the repository root.
"""

import json
import os
import statistics
import subprocess
import sys
import time

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run(workload, seed, seconds, trace):
    start = time.time()
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return result, time.time() - start, proc


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    workload = sys.argv[1]
    seeds = [int(s) for s in sys.argv[2].split(",")]
    seconds = int(sys.argv[3]) if len(sys.argv) > 3 else 10
    trace = int(sys.argv[4]) if len(sys.argv) > 4 else 0
    values = {}
    for seed in seeds:
        result, elapsed, proc = run(workload, seed, seconds, trace)
        ok = (proc.returncode == 0 and result is not None
              and result["correct"] and result["failed"] == 0)
        shown = "" if trace or result is None else " ".join(
            "%s=%.5g" % (k, v["value"]) for k, v in result["metrics"].items())
        print("seed %d: %.1fs ok=%s %s" % (seed, elapsed, ok, shown),
              flush=True)
        if not ok:
            print(proc.stderr[-2000:])
            continue
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    if trace or not values:
        return
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        print("%s %s: median %.6g spread %.4f (n=%d)"
              % (workload, name, med, spread, len(vals)))


if __name__ == "__main__":
    main()
