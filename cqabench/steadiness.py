#!/usr/bin/env python3
"""Checks that the benchmark is steady: two sets of runs of the same build.

For every workload and end-to-end metric it prints, per set, the median
and the quartiles of the runs (statistics.quantiles(values, n=4)), the
spread (q3 - q1) / median, and the change of the second median against
the first in the metric's "worse" direction, each next to the metric's
bound from BENCHMARK.json. It exits non-zero when a run is incorrect, a
spread exceeds its bound, or a median moved by more than its bound.

    python3 cqabench/steadiness.py                       # 2 sets x 10 runs
    python3 cqabench/steadiness.py --sets 1 --runs 5 --workloads churn_wide

Set k uses seeds seed_base + 100 * k + 1 .. + runs, so the two sets differ
in their inputs as well. Raw results, with each run's printed lines (the
per-round figures among them), go to
.bench_build/cqabench/steadiness-<time>.json.
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


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, timeout=200)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    result["log"] = lines[:-1]
    return result


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--seed-base", type=int, default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"]

    results = {}  # (set, workload) -> list of metric dicts
    run_logs = {}  # (set, workload) -> list of each run's printed lines
    ok = True
    for s in range(args.sets):
        for workload in workloads:
            runs = []
            logs = []
            for i in range(args.runs):
                seed = args.seed_base + 100 * s + i + 1
                result = run_once(workload, seed, seconds)
                if result is None or not result["correct"] or result["failed"]:
                    print("set %d %s seed %d: run failed or incorrect: %s"
                          % (s + 1, workload, seed, result))
                    ok = False
                    continue
                runs.append({k: v["value"] for k, v in result["metrics"].items()})
                logs.append(result["log"])
                print("set %d %s seed %d: %s" % (
                    s + 1, workload, seed,
                    " ".join("%s=%.5g" % (m["name"], runs[-1][m["name"]])
                             for m in metrics)), flush=True)
            results[(s, workload)] = runs
            run_logs[(s, workload)] = logs

    print()
    print("%-13s %-15s %6s | %-34s | %-34s | %8s" % (
        "workload", "metric", "bound", "set 1: median [q1, q3] spread",
        "set 2: median [q1, q3] spread", "change"))
    for workload in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cells = []
            medians = []
            for s in range(args.sets):
                values = [r[name] for r in results.get((s, workload), [])]
                if len(values) < 2:
                    cells.append("%-34s" % "n/a")
                    ok = False
                    continue
                median, q1, q3, spread = summarize(values)
                medians.append(median)
                flag = "" if spread <= bound else " !"
                if flag:
                    ok = False
                cells.append("%-34s" % ("%.5g [%.5g, %.5g] %.3f%s" % (
                    median, q1, q3, spread, flag)))
            change = ""
            if len(medians) == 2:
                worse = (medians[1] - medians[0]) / medians[0]
                if m["better"] == "higher":
                    worse = -worse
                change = "%+.3f%s" % (worse, " !" if worse > bound else "")
                if worse > bound:
                    ok = False
            print("%-13s %-15s %6.3f | %s | %s | %8s" % (
                workload, name, bound, cells[0],
                cells[1] if len(cells) > 1 else "", change))

    out_dir = os.path.join(ROOT, ".bench_build", "cqabench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "steadiness-%d.json" % int(time.time()))
    with open(path, "w") as f:
        json.dump({"%d/%s" % key: {"metrics": runs, "logs": run_logs[key]}
                   for key, runs in results.items()}, f, indent=1)
    print("\nraw results: %s\n%s" % (path, "STEADY" if ok else "NOT STEADY"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
