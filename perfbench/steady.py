#!/usr/bin/env python3
"""Steadiness report: run workloads repeatedly and print, for every
end-to-end metric, the median, the quartiles and the spread
(interquartile distance over the median) of its values.

Run from the root of a tka checkout:

    python3 perfbench/steady.py                      # every workload, 10 seeds
    python3 perfbench/steady.py --workloads serve-mix --runs 5
    python3 perfbench/steady.py --sets 2             # also compare two medians

Run i uses seed i (1, 2, ...), as the benchmark's driver does. Each
spread is checked against a third of the metric's bound in
BENCHMARK.json ("ok" / "WIDE"); setup_s is shown but not held to it.
With --sets 2 the whole series runs twice and the second median is
compared against the first.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=900,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"steady.py: {workload} seed {seed} failed:\n{out.stderr}")
    result = json.loads(lines[-1])
    if result["failed"]:
        print(f"  {workload} seed {seed}: {result['failed']} failed ops", file=sys.stderr)
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    bench = json.loads(pathlib.Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                runs.append(run_once(w, i + 1, args.seconds))
                values = " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items())
                print(f"  {w} set {s + 1} run {i + 1}/{args.runs}: {values}", file=sys.stderr)
            sets.append(runs)
        print(f"\n{w}: {args.runs} runs x {args.sets} set(s), {args.seconds} s each")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound/3':>8}  verdict")
        for name in bounds:
            for s, runs in enumerate(sets):
                med, q1, q3, sp = spread([r[name] for r in runs])
                third = bounds[name] / 3
                verdict = "ok" if sp < third or name == "setup_s" else "WIDE"
                line = (f"  {name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                        f"{sp:>8.4f} {third:>8.4f}  {verdict}")
                if s > 0:
                    first = statistics.median(r[name] for r in sets[0])
                    drift = med / first - 1 if first else 0.0
                    line += f"  (set {s + 1} median vs set 1: {drift:+.4f})"
                print(line)


if __name__ == "__main__":
    main()
