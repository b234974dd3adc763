#!/usr/bin/env python3
"""Regenerate the reference figures of perfbench/README.md.

    python3 perfbench/reference.py [--runs 10] [--workloads point,scan]

From the root of a checkout: builds the benchmark if needed, runs every
workload --runs times untraced (seeds 1..runs) and once traced (seed 1),
and prints Markdown: per workload the median and quartiles of each
end-to-end metric with its spread against the bound in BENCHMARK.json, the
traced run's per-layer table, and the tracing overhead. Takes about
half an hour with the defaults.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result}\n{proc.stderr}")
    p99 = re.search(r"p99 ([0-9.]+) us", proc.stderr)
    result["p99_us"] = float(p99.group(1)) if p99 else None
    return result


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    print(f"Host: {len(os.sched_getaffinity(0))} CPUs ({cpu_model()}), "
          f"{args.runs} untraced runs of {args.seconds} s per workload "
          f"(seeds 1..{args.runs}) and one traced run (seed 1).\n")
    traced = {}
    for w in workloads:
        results = [run(w, seed, args.seconds, 0)
                   for seed in range(1, args.runs + 1)]
        traced[w] = run(w, 1, args.seconds, 1)
        print(f"#### {w}\n")
        print(f"Attempted per run: {min(r['attempted'] for r in results)}"
              f"–{max(r['attempted'] for r in results)}, failed: "
              f"{sum(r['failed'] for r in results)}.\n")
        print("| metric | unit | median | Q1 | Q3 | (Q3−Q1)/median | bound |")
        print("|---|---|---|---|---|---|---|")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            print(f"| {m['name']} | {m['unit']} | {med:.4g} | {q1:.4g} | "
                  f"{q3:.4g} | {(q3 - q1) / med:.3f} | {m['bound']} |")
        p99 = [r["p99_us"] for r in results if r["p99_us"] is not None]
        if p99:
            q1, _, q3 = statistics.quantiles(p99, n=4)
            print(f"| stmt_p99_us (not gated) | us | "
                  f"{statistics.median(p99):.4g} | {q1:.4g} | {q3:.4g} | "
                  f"{(q3 - q1) / statistics.median(p99):.3f} | – |")
        untraced = statistics.median(
            r["metrics"]["stmt_per_s"]["value"] for r in results)
        tr = traced[w]["metrics"]["trace.stmt_per_s"]["value"]
        print(f"\nTraced run: {tr:.4g} statements/s against the untraced "
              f"median {untraced:.4g} ({(tr / untraced - 1) * 100:+.1f}%); "
              f"replay after the timed phase "
              f"{traced[w]['metrics']['trace.replay_s']['value']:.3g} s.\n")

    print("#### Per-layer metrics of the traced run (seed 1)\n")
    print("| metric | unit | " + " | ".join(workloads) + " |")
    print("|---|---|" + "---|" * len(workloads))
    for m in bench["per_layer"]:
        cells = [f"{traced[w]['metrics'][m['name']]['value']:.4g}"
                 for w in workloads]
        print(f"| {m['name']} | {m['unit']} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
