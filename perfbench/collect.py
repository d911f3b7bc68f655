"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/collect.py --seeds 0-9 --out perfbench/results/BENCH_2.json

For each workload in BENCHMARK.json: one run per seed with tracing off, then
one traced run at the first seed.  The summary gives, per
end-to-end metric, the median, the quartiles (``statistics.quantiles`` with
n=4) and the spread (q3 - q1) / median, next to the bound BENCHMARK.json
fixes, plus every run's raw result.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"record": json.loads(lines[-2])["record"], "result": json.loads(lines[-1])}


def summarise(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "spread_over_bound": spread / bound if bound else None, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    summary = {"seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for w in names:
        runs = []
        for seed in seeds:
            runs.append(run_once(w, seed, spec["run_seconds"], 0))
            res = runs[-1]["result"]
            sys.stderr.write(f"{w} seed {seed}: correct={res['correct']} "
                             f"{ {k: round(v['value'], 4) for k, v in res['metrics'].items()} }\n")
        entry = {
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "env": runs[0]["record"]["env"],
            "child_pins": runs[0]["record"]["child_pins"],
            "end_to_end": {name: summarise([r["result"]["metrics"][name]["value"] for r in runs],
                                           bound)
                           for name, bound in bounds.items()},
            "tail_percentile": runs[0]["record"]["tail_percentile"],
            "ops_per_run": [r["record"]["ops"] for r in runs],
        }
        traced = run_once(w, seeds[0], spec["run_seconds"], 1)
        entry["per_layer_seed"] = seeds[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        entry["per_layer_correct"] = traced["result"]["correct"]
        summary["workloads"][w] = entry
        for name, s in entry["end_to_end"].items():
            sys.stderr.write(f"{w} {name}: median {s['median']:.6g} spread {s['spread']:.4f} "
                             f"(bound {s['bound']})\n")
    text = json.dumps(summary, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
