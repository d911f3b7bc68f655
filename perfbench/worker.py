"""One benchmark process: set up a workload, run its passes, report JSON.

Started by run.py, never by hand.  Modes:

  setup  build the inputs, report when they were ready, exit
  run    set up, then run passes (tracing off)
  trace  install the span tracer first, then set up and run passes

The last line of stdout is one JSON object.  ``ready_mono`` is
``time.monotonic()`` when the inputs were ready, so the parent can measure
set-up time from the moment it started this process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time


def environment(seed: int) -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "nproc": os.cpu_count(),
            "cpu": cpu, "seed": seed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--passes", type=int, default=0, help="fixed pass count (0: timed)")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--tmp-root", required=True)
    args = ap.parse_args(argv)

    tracer = None
    if args.mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    import workloads

    tmpdir = tempfile.mkdtemp(dir=args.tmp_root)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, tmpdir)
        wl.setup()
        ready = time.monotonic()
        out = {"ready_mono": ready}
        if args.mode != "setup":
            out.update(run_passes(wl, args, tracer))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = environment(args.seed)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


def run_passes(wl, args, tracer) -> dict:
    walls, latencies, criteria, attempted, failed = [], [], {}, 0, 0
    timed_attributed = 0.0
    start = time.perf_counter()
    i = 0
    while True:
        ops = wl.prepare(i)
        if tracer is not None:
            tracer.attributed_s = 0.0
        wall, records = wl.run(ops)
        if tracer is not None:
            timed_attributed += tracer.attributed_s
        walls.append(wall)
        pass_latencies = wl.latencies(wall, records)
        latencies.extend(pass_latencies)
        for kind, s, _ in records:
            if kind.startswith("criterion."):
                criteria.setdefault(kind.split(".", 1)[1], []).append(s)
        attempted += len(records)
        failed += wl.check(ops, records)
        i += 1
        if args.passes:
            if i >= args.passes:
                break
        elif i >= wl.min_passes:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / i > args.seconds:
                break
    out = {"passes": i, "walls": walls, "latencies": latencies,
           "attempted": attempted, "failed": failed,
           "failures": wl.failures, "outcomes": dict(sorted(wl.outcomes.items())),
           # sample count the tail percentile is chosen for: what a timed
           # run always reaches, so every run reports the same percentile
           "min_ops": (len(latencies) if args.passes
                       else wl.min_passes * len(pass_latencies))}
    if tracer is not None:
        import tracing
        per_criterion = {cid: statistics.median(v) for cid, v in criteria.items()}
        layer = tracing.layer_metrics(tracer, per_criterion, sum(walls), timed_attributed)
        out["layer"] = {k: list(v) for k, v in layer.items()}
        out["spans"] = tracing.span_table(tracer)
    return out


if __name__ == "__main__":
    sys.exit(main())
