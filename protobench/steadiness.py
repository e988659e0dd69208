#!/usr/bin/env python3
"""Steadiness check for protobench: two alternating sets of runs of one build.

Builds the benchmark once, then runs every workload of BENCHMARK.json RUNS
times in each of two sets, A and B, alternating which set goes first, each
run as long as BENCHMARK.json's run_seconds. Every run uses its own seed
(set A: 1001.., set B: 2001..). For every workload and end-to-end metric it
prints both medians, their quartiles, the spread (interquartile distance
over the median) of each set, and set B's median move against set A's in
the worse direction.

Run from the repository root:

    python3 protobench/steadiness.py [--runs 10]

The exit code is 1 when a run fails, when a spread or a median move
exceeds the metric's bound, or when the failed share differs between the
sets.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
        check=True,
    )
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    return os.path.join(os.path.abspath(target), "release", "protobench")


def run(binary, workload, seed, seconds):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=False,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    binary = build()

    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for workload in workloads:
            for side in order:
                seed = (1001 if side == "A" else 2001) + i
                result = run(binary, workload, seed, seconds)
                results[workload][side].append(result)
                print(f"  run {i + 1}/{args.runs} {workload:<5} set {side} "
                      f"seed {seed}: {result['attempted']} attempted, "
                      f"{result['failed']} failed", file=sys.stderr)

    ok = True
    print(f"{args.runs} runs per set, {seconds} s each; spread = (Q3-Q1)/median; "
          "move = B's median vs A's, positive = worse")
    for workload in workloads:
        print(f"\n{workload}")
        print(f"  {'metric':<20} {'A median':>11} {'A Q1..Q3':>23} {'A spread':>8} "
              f"{'B median':>11} {'B Q1..Q3':>23} {'B spread':>8} {'move':>7} "
              f"{'bound':>6}  verdict")
        shares = {}
        for side in ("A", "B"):
            runs = results[workload][side]
            shares[side] = (sum(r["failed"] for r in runs),
                            sum(r["attempted"] for r in runs))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = {}
            for side in ("A", "B"):
                values = [r["metrics"][name]["value"] for r in results[workload][side]]
                q1, q2, q3 = statistics.quantiles(values, n=4)
                stats[side] = (q1, q2, q3, (q3 - q1) / q2)
            a, b = stats["A"][1], stats["B"][1]
            move = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            spread = max(stats["A"][3], stats["B"][3])
            within = move <= bound and spread <= bound
            ok &= within
            verdict = "OUT OF BOUND"
            if within:
                verdict = "ok" if spread <= bound / 3 else "ok (spread above a third of the bound)"
            print(f"  {name:<20} {a:>11.4f} {stats['A'][0]:>11.4f}..{stats['A'][2]:<11.4f}"
                  f"{stats['A'][3]:>8.1%} {b:>11.4f} {stats['B'][0]:>11.4f}.."
                  f"{stats['B'][2]:<11.4f}{stats['B'][3]:>8.1%} {move:>+7.1%} "
                  f"{bound:>6.0%}  {verdict}")
        fa, na = shares["A"]
        fb, nb = shares["B"]
        same = fa * nb == fb * na
        ok &= same
        print(f"  failed share: A {fa}/{na}, B {fb}/{nb}: {'same' if same else 'DIFFERENT'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
