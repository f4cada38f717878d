#!/usr/bin/env python3
"""Repeat driver: runs workloads over several seeds and summarises them.

Run from the root of a checkout:

    python3 perfbench/repeat.py --workload paper-steady --runs 10
    python3 perfbench/repeat.py --all --runs 10 --sets 2   # two sets must agree
    python3 perfbench/repeat.py --smoke                     # every workload, small, both modes

For each workload and end-to-end metric it prints the median, the first
and third quartiles (`statistics.quantiles(values, n=4)`), the spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json, and,
with two sets, how far the second set's median moved in the worse
direction. It also checks that every run was correct, printed exactly
the metrics BENCHMARK.json names for its mode, and that the share of
failed operations is identical in every run, whatever the seed. Exits
non-zero if any of that fails, or if a spread or a second-set move of any
end-to-end metric, `setup_s` included, reaches its bound.

Every set runs seeds 1..N (N = --runs) for `run_seconds` from
BENCHMARK.json with `--trace 0`; `--smoke` also checks the traced mode.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace, smoke=False):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stderr[-4000:])
    return proc.returncode, result, elapsed


def expected_metrics(bench, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def validate(result, expected):
    """Problems with one run's result line, as strings."""
    problems = []
    if result is None:
        return ["no JSON result line"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != expected:
        problems.append(f"metrics {got} != {expected}")
    return problems


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise_set(workload, results, bench):
    """Per-metric (median, q1, q3, spread) of one set of results."""
    out = {}
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, _, q3 = quartiles(values)
        med = statistics.median(values)
        out[m["name"]] = (med, q1, q3, (q3 - q1) / med if med else float("inf"))
    return out


def failed_shares(results):
    """The exact share of failed operations of each run."""
    return {Fraction(r["failed"], r["attempted"]) for r in results}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--all", action="store_true", help="every workload in BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=10, help="runs (seeds) per set")
    ap.add_argument("--sets", type=int, default=1, help="sets of runs to compare")
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload once at reduced size, untraced and traced")
    args = ap.parse_args()

    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ok = True

    if args.smoke:
        for w in names:
            for trace in (0, 1):
                code, result, elapsed = run_once(w, 1, 1, trace, smoke=True)
                problems = validate(result, expected_metrics(bench, trace))
                if code != 0:
                    problems.append(f"exit code {code}")
                status = "ok" if not problems else "FAIL: " + "; ".join(problems)
                print(f"smoke {w:<15} trace {trace}: {elapsed:6.1f} s  {status}", flush=True)
                ok = ok and not problems
        return 0 if ok else 1

    workloads = names if args.all else args.workload
    unknown = [w for w in workloads if w not in names]
    if not workloads or unknown:
        ap.error(f"name workloads from {names} (unknown: {unknown})")
    seconds = bench["run_seconds"]
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    expected = expected_metrics(bench, 0)

    for w in workloads:
        sets = []
        for s in range(args.sets):
            results = []
            for i in range(args.runs):
                seed = 1 + i
                code, result, elapsed = run_once(w, seed, seconds, 0)
                problems = validate(result, expected)
                if code != 0:
                    problems.append(f"exit code {code}")
                if problems:
                    ok = False
                    print(f"{w} set {s} seed {seed}: FAIL: {'; '.join(problems)}", flush=True)
                    continue
                vals = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                print(f"{w} set {s} seed {seed}: {elapsed:5.1f} s  attempted {result['attempted']}"
                      f" failed {result['failed']}  {vals}", flush=True)
                results.append(result)
            sets.append(results)
        if not all(sets):
            continue
        shares = set().union(*(failed_shares(r) for r in sets))
        if len(shares) != 1:
            ok = False
            print(f"{w}: failed share differs between runs: {sorted(str(x) for x in shares)}")
        summaries = [summarise_set(w, r, bench) for r in sets]
        print(f"\n{w}: {args.runs} runs x {args.sets} set(s), failed share {sorted(str(x) for x in shares)}")
        for name, (bound, better) in bounds.items():
            for s, summary in enumerate(summaries):
                med, q1, q3, spread = summary[name]
                flag = "" if spread < bound else "  SPREAD >= BOUND"
                if flag:
                    ok = False
                print(f"  {name:<14} set {s}: median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                      f"spread {spread:.4f} (bound {bound}, third {bound / 3:.4f}){flag}")
            if len(summaries) > 1:
                first, second = summaries[0][name][0], summaries[-1][name][0]
                worse = (second - first) / first if better == "lower" else (first - second) / first
                flag = "" if worse <= bound else "  WORSE THAN BOUND"
                if flag:
                    ok = False
                print(f"  {name:<14} second set worse by {worse:+.4f} (bound {bound}){flag}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
