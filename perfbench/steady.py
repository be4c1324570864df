#!/usr/bin/env python3
"""Steadiness check for the benchmark described by BENCHMARK.json.

Runs every workload (or those named with --workloads) k times with k
different seeds, alternating the workload order from one pass to the next,
and prints for each end-to-end metric its median, first and third quartile
(Python's statistics.quantiles(values, n=4)), and the spread (q3 - q1) /
median against the metric's bound. It also checks that the share of failed
operations is the same in every run of a workload.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads hot-occ --out a.json
    python3 perfbench/steady.py --runs 10 --out b.json --against a.json

--against compares this set's medians with an earlier set saved by --out:
a metric fails when its median got worse by more than its bound. Run it
from the root of the repository; the exit code is 1 when a spread exceeds
its bound, a median moved by more than its bound, or a run failed.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(metric, old, new):
    """How much worse `new` is than `old`, as a share of `old`."""
    if old == 0:
        return 0.0
    delta = (new - old) / old
    return delta if metric["better"] == "lower" else -delta


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--out")
    ap.add_argument("--against")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = opts.workloads or [w["name"] for w in bench["workloads"]]
    seconds = opts.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]

    results = {w: [] for w in names}
    for i in range(opts.runs):
        order = names if i % 2 == 0 else list(reversed(names))
        for w in order:
            seed = opts.seed_base + i
            r = run_once(bench["command"], w, seed, seconds)
            results[w].append(r)
            print(f"  {w} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} wall={r['wall_s']:.1f}s", flush=True)

    earlier = None
    if opts.against:
        with open(opts.against) as f:
            earlier = json.load(f)

    ok = True
    summary = {}
    for w in names:
        runs = results[w]
        print(f"\n{w}: {len(runs)} runs, wall {min(r['wall_s'] for r in runs):.1f}"
              f"-{max(r['wall_s'] for r in runs):.1f}s")
        if not all(r["correct"] for r in runs):
            print("  a run reported correct=false")
            ok = False
        shares = {r["failed"] / r["attempted"] for r in runs}
        if len(shares) != 1:
            print(f"  failed share differs between runs: {sorted(shares)}")
            ok = False
        summary[w] = {"failed_share": sorted(shares)}
        print(f"  {'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            if len(values) < 2:
                continue
            med, q1, q3, spread = summarize(values)
            bound = m["bound"]
            flag = ""
            if spread > bound:
                flag, ok = " SPREAD>BOUND", False
            elif spread > bound / 3:
                flag = " (over a third of the bound)"
            if earlier and w in earlier:
                old = earlier[w][m["name"]]["median"]
                moved = worse_by(m, old, med)
                flag += f" vs earlier {moved:+.3f}"
                if moved > bound:
                    flag, ok = flag + " WORSE>BOUND", False
            summary[w][m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                     "values": values}
            print(f"  {m['name']:<40} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.4f} "
                  f"{bound:>6}{flag}")

    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(summary, f, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
