#!/usr/bin/env python3
"""Record a baseline: run every workload over several seeds and summarize.

    python3 perfbench/record_baseline.py --out perfbench/baseline/NAME.json \
        [--seeds 1-10] [--workloads analytics,multimodal] [--traced-seed 1]

Run from the repository root. Each workload runs once per seed untraced
(`run.py --trace 0` with BENCHMARK.json's run_seconds), then once traced.
For every end-to-end metric the summary holds the per-seed values, their
median and quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median next to the metric's bound; per-layer metrics come from
the traced run. The `meta` line of the first run (nproc, L3 size,
compiler, build type, thread count, commit) is stored with it.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stdout}")
    meta = next((json.loads(l[5:]) for l in lines if l.startswith("meta ")), {})
    return json.loads(lines[-1]), meta


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--traced-seed", type=int, default=1)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = parse_seeds(args.seeds)

    summary = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in workloads:
        values, failures = {}, 0
        for seed in seeds:
            result, meta = run(workload, seed, seconds, trace=False)
            host = {k: v for k, v in meta.items()
                    if k not in ("workload", "seed", "trace")}
            summary.setdefault("meta", host)
            failures += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} " +
                  " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()),
                  flush=True)
        end_to_end = {}
        for name, v in values.items():
            q1, _, q3 = statistics.quantiles(v, n=4)
            median = statistics.median(v)
            end_to_end[name] = {
                "values": v, "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": bounds[name]}
            print(f"  {name:18s} median {median:.5g}  spread "
                  f"{(q3 - q1) / median:.3f}  bound {bounds[name]}", flush=True)
        traced, _ = run(workload, args.traced_seed, seconds, trace=True)
        summary["workloads"][workload] = {
            "failed_ops": failures,
            "end_to_end": end_to_end,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    with open(args.out, "w") as f:
        json.dump(summary, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
