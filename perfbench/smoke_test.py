#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Run from the repository root. Every workload runs at a tiny budget
(--tiny), untraced and traced, and the test checks that:

- each run exits 0, its last stdout line is the result object, every job
  passed its correctness checks, and attempted >= 1;
- the metric names and units are exactly those BENCHMARK.json declares
  (end_to_end for --trace 0, per_layer for --trace 1), with finite values
  and positive end-to-end values;
- the traced run's layer self times add up to its wall time within the
  reported tracing overhead;
- the result digest repeats for a repeated seed and changes with the seed
  (the seeded synthetic kernel);
- in a directory holding only BENCHMARK.json and the benchmark's files,
  the benchmark exits non-zero without printing a result.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

ROOT = os.getcwd()
RUN = ["python3", "perfbench/run.py"]
failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc, lines, result


def digest(lines):
    for line in lines:
        m = re.search(r"result_digest ([0-9a-f]{64})", line)
        if m:
            return m.group(1)
    return None


def check_result(tag, proc, result, declared):
    check(proc.returncode == 0, tag + ": exit code 0")
    if result is None:
        check(False, tag + ": last line is a JSON result")
        print(proc.stderr[-2000:])
        return
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          tag + ": result keys")
    check(result["correct"] is True and result["failed"] == 0,
          tag + ": every job correct")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          tag + ": attempted >= 1")
    metrics = result["metrics"]
    check(sorted(metrics) == sorted(declared),
          tag + ": metric names match BENCHMARK.json")
    for name, spec in declared.items():
        m = metrics.get(name)
        if m is None:
            continue
        check(m["unit"] == spec["unit"] and math.isfinite(m["value"]),
              tag + ": " + name + " unit and value")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layers = {m["name"]: m for m in bench["per_layer"]}

    for w in bench["workloads"]:
        name = w["name"]
        proc, lines, result = run(name, 7, 0)
        check_result(name + " --trace 0", proc, result, e2e)
        if result:
            for metric in e2e:
                value = result["metrics"].get(metric, {}).get("value", 0)
                check(value > 0, "%s: %s > 0" % (name, metric))
        first = digest(lines)
        check(first is not None, name + ": result_digest reported")

        proc, lines, result = run(name, 7, 1)
        check_result(name + " --trace 1", proc, result, layers)
        check(digest(lines) == first,
              name + ": traced run reports the same result_digest")
        gap = [l for l in lines if "sum of sampled self times" in l]
        check(len(gap) == 1 and gap[0].rstrip().endswith(" ok"),
              name + ": layer self times add up to the traced wall time")
        if gap:
            print("      " + gap[0].strip())

        proc, lines, _ = run(name, 8, 0)
        check(digest(lines) not in (None, first),
              name + ": another seed changes the result_digest")

    # Without the simulator's sources there is nothing to build: the
    # benchmark must fail without printing a result.
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    proc, lines, result = run(bench["workloads"][0]["name"], 1, 0, cwd=bare)
    check(proc.returncode != 0 and result is None,
          "bare directory: non-zero exit and no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures else "all passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
