#!/usr/bin/env python3
"""Runs the benchmark several times per workload, each with another seed,
and reports each end-to-end metric's median, quartiles and spread.

The spread is the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median; a metric
is steady when its spread stays below a third of its bound in
BENCHMARK.json.

    python3 perfbench/steadiness.py --runs 10 [--workloads a,b] [--seed-base 1]
                                    [--out perfbench/STEADINESS.md]

Run it from the repository root. Each run uses the command and
run_seconds of BENCHMARK.json; raw results are appended as JSON lines to
perfbench/traces/steadiness-runs.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "0",
    ]
    started = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    meta = json.loads(lines[-2]) if len(lines) > 1 else {}
    return result, meta, wall


def describe(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    os.makedirs("perfbench/traces", exist_ok=True)
    raw = open("perfbench/traces/steadiness-runs.jsonl", "a")
    lines = [
        f"Runs per workload: {args.runs}, seeds {args.seed_base}..{args.seed_base + args.runs - 1}, "
        f"run_seconds {spec['run_seconds']}, trace 0.",
        "",
    ]
    worst = []
    for workload in names:
        values = {name: [] for name in bounds}
        walls, correct = [], True
        for i in range(args.runs):
            seed = args.seed_base + i
            result, meta, wall = run_once(spec, workload, seed)
            raw.write(json.dumps({"workload": workload, "seed": seed, "wall_s": wall,
                                  "result": result, "meta": meta}) + "\n")
            raw.flush()
            walls.append(wall)
            correct &= result["correct"] and result["failed"] == 0
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']}",
                  file=sys.stderr)
        lines.append(f"### {workload}")
        lines.append("")
        lines.append(f"All runs correct: {correct}. Wall time per run: "
                     f"{min(walls):.1f}–{max(walls):.1f} s.")
        lines.append("")
        lines.append("| metric | unit | median | q1 | q3 | spread | bound | spread ÷ bound |")
        lines.append("|---|---|---|---|---|---|---|---|")
        for name, vals in values.items():
            median, q1, q3, spread = describe(vals)
            ratio = spread / bounds[name]
            worst.append((ratio, workload, name))
            lines.append(
                f"| `{name}` | {units[name]} | {median:.6g} | {q1:.6g} | {q3:.6g} | "
                f"{spread:.4f} | {bounds[name]} | {ratio:.2f} |"
            )
        lines.append("")
    ratio, workload, name = max(worst)
    lines.append(f"Largest spread ÷ bound: {ratio:.2f} (`{workload}` / `{name}`).")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    print(text)


if __name__ == "__main__":
    main()
