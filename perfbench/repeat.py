#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end metric's
median and run-to-run spread: the distance between the first and third
quartile (`statistics.quantiles(values, n=4)`) as a share of the median.

Usage (from the repository root):

    python3 perfbench/repeat.py [--workloads point,analytic,write-churn]
        [--seeds 1-10] [--out FILE.jsonl] [--compare EARLIER.jsonl]

Each run's result line is appended to `--out` (default
`.bench_run/repeat.jsonl`). A metric is steady when its spread is below a
third of its bound in `BENCHMARK.json`; every metric, `setup_s` too, is
judged so. The report fails when a spread exceeds its bound or when any run
reports `"correct": false`. With `--compare`, each median is also checked
against the earlier file's: it may not be worse by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def spread(values):
    """Quartile distance over the median; None for fewer than two values."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else None


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def seeds(text):
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def load(path):
    runs = {}
    with open(path) as lines:
        for line in lines:
            record = json.loads(line)
            runs.setdefault(record["workload"], []).append(record)
    return runs


def report(spec, runs, earlier):
    ok = True
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for workload, records in runs.items():
        incorrect = sum(not r["result"]["correct"] for r in records)
        ok = ok and incorrect == 0
        print(f"{workload}: {len(records)} runs, {incorrect} incorrect")
        for name, m in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in records]
            s = spread(values)
            median = statistics.median(values)
            verdict = "ok"
            if s is None:
                verdict = "n/a"
            elif s >= m["bound"] / 3:
                verdict = "UNSTEADY" if s > m["bound"] else "wide"
                ok = ok and s <= m["bound"]
            line = (f"  {name:<14} median {median:12.4f} {m['unit']:<4} "
                    f"spread {s if s is not None else float('nan'):.4f} "
                    f"(bound {m['bound']}) {verdict}")
            if earlier and workload in earlier:
                before = statistics.median(
                    r["result"]["metrics"][name]["value"] for r in earlier[workload])
                change = worse_by(before, median, m["better"])
                flag = "REGRESSED" if change > m["bound"] else "held"
                ok = ok and change <= m["bound"]
                line += f"; vs earlier {before:.4f}: worse by {change:+.3f} {flag}"
            print(line)
    return ok


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=os.path.join(".bench_run", "repeat.jsonl"))
    parser.add_argument("--compare")
    parser.add_argument("--report-only", action="store_true")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    if not args.report_only:
        for workload in workloads:
            for seed in seeds(args.seeds):
                command = [*spec["command"], "--workload", workload, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: exit {done.returncode}", file=sys.stderr)
                    return 1
                result = json.loads(lines[-1])
                with open(args.out, "a") as out:
                    out.write(json.dumps({"workload": workload, "seed": seed,
                                          "result": result}) + "\n")
                print(f"{workload} seed {seed}: correct {result['correct']}", file=sys.stderr)
    runs = {w: r for w, r in load(args.out).items() if w in workloads}
    earlier = load(args.compare) if args.compare else None
    return 0 if report(spec, runs, earlier) else 1


if __name__ == "__main__":
    sys.exit(main())
