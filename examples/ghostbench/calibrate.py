#!/usr/bin/env python3
"""Calibrate ghostbench's bounds from repeated untraced runs.

Runs every workload of BENCHMARK.json once per seed, for several passes,
with the command and run length BENCHMARK.json names, and appends one
campaign to the output file: the raw per-run metric values, and per
workload and metric the spread of each pass (distance between the first
and third quartile over the median, as `statistics.quantiles(v, n=4)`
gives them) and how much worse each later pass's median reads than the
first's. Run from the repository root, e.g.

    python3 examples/ghostbench/calibrate.py --seeds 1-10 --passes 2 \
        --out examples/ghostbench/calibration.json
"""

import argparse
import json
import os
import statistics
import subprocess
import time


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    start = time.time()
    out = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.time() - start
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr[-3000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} reported failures")
    return {
        "workload": workload,
        "seed": seed,
        "wall_s": round(wall, 2),
        "attempted": result["attempted"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def summarize(bench, runs, passes):
    summary = {}
    for w in {r["workload"] for r in runs}:
        summary[w] = {}
        for m in bench["end_to_end"]:
            name, sign = m["name"], (1 if m["better"] == "lower" else -1)
            per_pass = [[r["metrics"][name] for r in runs
                         if r["workload"] == w and r["pass"] == p] for p in range(passes)]
            medians = [statistics.median(v) for v in per_pass]
            spreads = []
            for v, med in zip(per_pass, medians):
                q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
                spreads.append((q[2] - q[0]) / med if med else 0.0)
            worse = [sign * (med - medians[0]) / medians[0] if medians[0] else 0.0
                     for med in medians[1:]]
            summary[w][name] = {
                "bound": m["bound"],
                "medians": medians,
                "spreads": [round(s, 5) for s in spreads],
                "worse_than_first": [round(x, 5) for x in worse],
                "spread_below_third_of_bound": max(spreads) < m["bound"] / 3,
            }
    return summary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,2")
    ap.add_argument("--passes", type=int, default=2)
    ap.add_argument("--workloads", help="comma list (default: all)")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    runs = []
    for p in range(args.passes):
        for w in workloads:
            for s in seed_list(args.seeds):
                r = run(bench, w, s)
                r["pass"] = p
                runs.append(r)
                print(f"pass {p} {w} seed {s}: {r['wall_s']} s", flush=True)
    campaign = {
        "command": bench["command"],
        "run_seconds": bench["run_seconds"],
        "seeds": seed_list(args.seeds),
        "passes": args.passes,
        "cpus": os.cpu_count(),
        "summary": summarize(bench, runs, args.passes),
        "runs": runs,
    }
    doc = {"campaigns": []}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    doc["campaigns"].append(campaign)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    for w, metrics in campaign["summary"].items():
        for name, s in metrics.items():
            print(f"{w:12s} {name:26s} bound {s['bound']:<5} spreads {s['spreads']} "
                  f"worse {s['worse_than_first']}")


if __name__ == "__main__":
    main()
