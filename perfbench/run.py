"""weightseq benchmark: one command for every workload.

    python3 perfbench/run.py --workload verify_all --seed 0 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``.
Workloads (see BENCHMARK.json and perfbench/README.md):

  verify_all    `weightseq verify all --seed <seed>`, one op per criterion
  window_query  single omega/counting/... queries on P = 10^5 sequences
  window_build  `weightseq analyze` and `weightseq transform` on fresh
                sequences at P in {512, 1024, 2048}

Every measurement runs in a fresh child process pinned to one BLAS/OpenMP
thread.  With ``--trace 0`` the set-up is repeated in extra processes and
the end-to-end metrics are printed; with ``--trace 1`` an untraced and a
traced process run the same fixed passes and the per-layer metrics are
printed.  ``--smoke`` shrinks every workload for a quick functional check.

The last line of stdout is the result object; the line before it is the
full run record (environment, samples, outcome counts, span table).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("verify_all", "window_query", "window_build")
SETUP_REPEATS = 7          # set-up samples per run (median reported)
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
RUN_BUDGET_S = 170         # every child of one run must end within this
# Environment of every child process.  One BLAS/OpenMP thread each.  glibc's
# allocator is pinned to a fixed warm state: blocks below 32 MiB (the
# largest mmap threshold glibc accepts) come from the heap, and freed heap
# memory is kept for reuse instead of being trimmed.  Left dynamic, the same
# window_query pass ran either ~1.1 s or ~1.8 s depending on allocator
# history; pinned, it runs in ~0.6 s on every pass.
CHILD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "MALLOC_MMAP_THRESHOLD_": "33554432",
              "MALLOC_TRIM_THRESHOLD_": "1073741824"}


class BenchError(RuntimeError):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(CHILD_PINS)
    return env


def spawn(root, tmp_root, args, mode, passes=0) -> dict:
    """Run one worker process to completion and return its report."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--seconds", str(args.seconds),
           "--passes", str(passes), "--tmp-root", tmp_root]
    if args.smoke:
        cmd.append("--smoke")
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                          text=True, timeout=max(1.0, args.deadline - started))
    if proc.returncode != 0:
        raise BenchError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready_mono"] - started
    return out


def tail(latencies, min_ops):
    """Highest ladder percentile with at least ten samples beyond it at the
    sample count every timed run reaches; the maximum below 20 samples."""
    for pct in TAIL_LADDER:
        if min_ops * (1.0 - pct / 100.0) >= 10.0:
            return pct, _percentile(latencies, pct)
    return 100.0, max(latencies)


def _percentile(values, pct):
    xs = sorted(values)
    k = (len(xs) - 1) * pct / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def end_to_end(root, tmp_root, args):
    # the host's speed drifts over seconds, so the set-up samples are split
    # around the timed run instead of being taken back to back
    before = (SETUP_REPEATS - 1) // 2
    setups = [spawn(root, tmp_root, args, "setup")["setup_s"] for _ in range(before)]
    run = spawn(root, tmp_root, args, "run", 1 if args.smoke else 0)
    setups.append(run["setup_s"])
    setups += [spawn(root, tmp_root, args, "setup")["setup_s"]
               for _ in range(SETUP_REPEATS - 1 - before)]
    lat = run["latencies"]
    pct, tail_s = tail(lat, run["min_ops"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(run["walls"]), "s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    record = {"setup_samples_s": setups, "passes": run["passes"], "walls_s": run["walls"],
              "ops": len(lat), "tail_percentile": pct,
              "fail_ratio": run["failed"] / max(run["attempted"], 1),
              "outcomes": run["outcomes"], "failures": run["failures"], "env": run["env"]}
    return metrics, record, run["attempted"], run["failed"]


def per_layer(root, tmp_root, args):
    import workloads
    passes = 1 if args.smoke else workloads.WORKLOADS[args.workload].trace_passes
    ref = spawn(root, tmp_root, args, "run", passes)
    traced = spawn(root, tmp_root, args, "trace", passes)
    metrics = {k: tuple(v) for k, v in traced["layer"].items()}
    ref_wall, traced_wall = sum(ref["walls"]), sum(traced["walls"])
    metrics["trace.overhead_frac"] = ((traced_wall - ref_wall) / ref_wall, "fraction")
    attempted = ref["attempted"] + traced["attempted"]
    failed = ref["failed"] + traced["failed"]
    record = {"passes": passes, "untraced_wall_s": ref_wall, "traced_wall_s": traced_wall,
              "fail_ratio": failed / max(attempted, 1), "outcomes": traced["outcomes"],
              "failures": ref["failures"] + traced["failures"],
              "spans": traced["spans"], "env": traced["env"]}
    return metrics, record, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="short functional run")
    args = ap.parse_args(argv)
    args.deadline = time.monotonic() + RUN_BUDGET_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "weightseq", "__init__.py")):
        sys.stderr.write("run.py: no src/weightseq here; run from the repository root\n")
        return 2
    tmp_root = tempfile.mkdtemp(prefix=".perfbench_tmp_", dir=root)
    try:
        fn = per_layer if args.trace else end_to_end
        metrics, record, attempted, failed = fn(root, tmp_root, args)
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        sys.stderr.write(f"run.py: {exc}\n")
        return 1
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  smoke=args.smoke, child_pins=CHILD_PINS)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    sys.stdout.write(json.dumps({"record": record}) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
