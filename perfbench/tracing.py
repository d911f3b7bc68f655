"""Span tracing of weightseq from outside the library.

``install`` wraps the public functions of each library module in spans and
rebinds every module-level reference to them, so calls through names
imported with ``from .x import f`` are caught as well.  A span records its
call count, total time and self time (its duration minus the part covered
by child spans).  Hooks attached to some spans count outcomes: untrusted
evaluations, censored counts, refusals, verdict and certificate statuses,
bytes of JSON written and read.

Tracing lives in the benchmark process only; the library is not modified.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc
import types
from collections import Counter, defaultdict

LAYERS = ("seqcore", "transforms", "weights", "analysis", "extension",
          "operator_lab", "acceptance", "cli")

# private predicate checks that get spans of their own; they are reached
# through analysis._CHECKS, so the dict entries are rebound too
ANALYSIS_CHECKS = {"_check_mg": "mg", "_check_om1": "om1",
                   "_check_gamma1": "gamma1"}
GAUGE_METHODS = ("h", "log_h", "log_g")
MPMATH_COUNTED = ("exp", "log", "loggamma")

SEQCORE_BUILD = ("gevrey", "qgevrey", "custom", "from_quotients", "make_family",
                 "little_m", "factorial_shift", "root_sequence",
                 "small_gevrey_family")
SEQCORE_IO = ("save_sequence", "load_sequence")
TRANSFORM_SPANS = ("conjugate", "dual", "bidual", "regularize_almost_decreasing",
                   "log_convex_minorant")
WINDOW_SPANS = ("omega", "counting", "omega_extended",
                "integral_representation_residual")
EXTENSION_SPANS = ("taylor_majorant", "cauchy_restriction_bound")
OPERATOR_SPANS = ("build_counterexample", "exponential_class_sum",
                  "weighted_class_sum")
VERDICTS = ("holds", "fails", "inconclusive")
CERTIFICATES = ("converged", "diverged", "inconclusive")
CRITERIA = tuple(str(i) for i in range(1, 12))
# entry points that only dispatch to the layers below: every op of
# verify_all and window_build runs inside cli.main, so their self time
# (argument parsing, the private cli._cmd_* and acceptance._c* bodies) is
# left out of the time attributed to named layer spans
ENTRY_SPANS = frozenset(("cli.main", "acceptance.run_suite", "acceptance.run_criterion"))


class Tracer:
    """In-memory span aggregates; one instance per traced process."""

    def __init__(self):
        self.stack = []            # open spans: [child_seconds, name]
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.attributed_s = 0.0    # self time of spans other than ENTRY_SPANS
        self.mg_peak_bytes = 0

    def parent(self):
        return self.stack[-1][1] if self.stack else None

    def span(self, name, fn, hook=None):
        stack = self.stack
        clock = time.perf_counter
        attributed = name not in ENTRY_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            t0 = clock()
            out = err = None
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as exc:
                err = exc
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                self.calls[name] += 1
                self.total[name] += dur
                self.self_s[name] += dur - frame[0]
                if attributed:
                    self.attributed_s += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if hook is not None:
                    hook(self, args, kwargs, out, err)

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


# ---------------------------------------------------------------------------
# outcome hooks
# ---------------------------------------------------------------------------

def _omega_hook(tr, args, kwargs, out, err):
    if out is None:
        return
    M = args[0] if args else kwargs["M"]
    t = args[1] if len(args) > 1 else kwargs["t"]
    if t != 0:
        tr.counts["weights.omega.entries_scanned"] += M.P + 1
    if not out.trusted:
        tr.counts["weights.omega.untrusted"] += 1


def _counting_hook(tr, args, kwargs, out, err):
    from weightseq.errors import CensoredWindowError
    if isinstance(err, CensoredWindowError):
        tr.counts["weights.counting.censored"] += 1


def _transform_hook(tr, args, kwargs, out, err):
    from weightseq.errors import WeightSeqError
    # a refusal is counted once, where it leaves the transforms layer
    parent = tr.parent()
    if isinstance(err, WeightSeqError) and not (parent or "").startswith("transforms."):
        tr.counts["transforms.refusals"] += 1


def _dual_hook(tr, args, kwargs, out, err):
    _transform_hook(tr, args, kwargs, out, err)
    if out is not None:
        tr.counts["transforms.dual.entries_out"] += out.P + 1


def _verdict_hook(tr, args, kwargs, out, err):
    if out is not None:
        tr.counts[f"analysis.verdict.{out.status}"] += 1


def _certificate_hook(tr, args, kwargs, out, err):
    if out is not None:
        tr.counts[f"operator_lab.certificate.{out.certificate}"] += 1


def _io_hook(tr, args, kwargs, out, err):
    if err is None:
        path = args[-1] if args else kwargs["path"]
        tr.counts["seqcore.io.bytes"] += os.path.getsize(path)


def _report_hook(tr, args, kwargs, out, err):
    if out is not None:
        tr.counts["cli.report_bytes"] += len(out.encode())


HOOKS = {
    "weights.omega": _omega_hook,
    "weights.counting": _counting_hook,
    "transforms.dual": _dual_hook,
    "analysis.check_property": _verdict_hook,
    "operator_lab.exponential_class_sum": _certificate_hook,
    "operator_lab.weighted_class_sum": _certificate_hook,
    "seqcore.save_sequence": _io_hook,
    "seqcore.load_sequence": _io_hook,
    "cli.dump_report": _report_hook,
}


def _measure_alloc(tr, fn):
    """Run fn under tracemalloc and keep the largest peak seen (traced runs only)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracemalloc.is_tracing():
            return fn(*args, **kwargs)
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            tr.mg_peak_bytes = max(tr.mg_peak_bytes, peak)

    return wrapper


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------

def install(tracer: Tracer) -> None:
    """Wrap the library's public functions and rebind every reference."""
    import importlib

    import mpmath

    mods = {layer: importlib.import_module(f"weightseq.{layer}") for layer in LAYERS}
    replace = {}
    for layer, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                    or obj.__module__ != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            hook = HOOKS.get(name)
            if hook is None and layer == "transforms":
                hook = _transform_hook
            replace[obj] = tracer.span(name, obj, hook)
    analysis = mods["analysis"]
    for attr, short in ANALYSIS_CHECKS.items():
        fn = getattr(analysis, attr)
        if short == "mg":
            fn = _measure_alloc(tracer, fn)
        replace[getattr(analysis, attr)] = tracer.span(f"analysis.{short}", fn)

    # rebind module globals and module-level dicts (analysis._CHECKS) in
    # every weightseq module, including the package namespace
    for modname, mod in list(sys.modules.items()):
        if modname != "weightseq" and not modname.startswith("weightseq."):
            continue
        d = vars(mod)
        for key, val in list(d.items()):
            if isinstance(val, types.FunctionType) and val in replace:
                d[key] = replace[val]
            elif isinstance(val, dict):
                for k2, v2 in list(val.items()):
                    if isinstance(v2, types.FunctionType) and v2 in replace:
                        val[k2] = replace[v2]

    gauge_cls = mods["weights"].GrowthGauge
    for meth in GAUGE_METHODS:
        setattr(gauge_cls, meth,
                tracer.span(f"weights.{meth}", getattr(gauge_cls, meth)))

    for attr in MPMATH_COUNTED:
        setattr(mpmath, attr, tracer.counter(f"mpmath.{attr}.calls",
                                             getattr(mpmath, attr)))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _group(tracer, names):
    return (sum(tracer.calls[n] for n in names),
            sum(tracer.self_s[n] for n in names))


def layer_metrics(tracer: Tracer, criterion_s: dict, timed_wall_s: float,
                  timed_attributed_s: float) -> dict:
    """The benchmark's per-layer metrics as {name: (value, unit)}, except
    trace.overhead_frac, which needs the untraced twin run."""
    tr = tracer
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    calls, self_s = _group(tr, [f"seqcore.{n}" for n in SEQCORE_BUILD])
    put("seqcore.build.calls", calls, "count")
    put("seqcore.build.self_s", self_s, "s")
    put("seqcore.quotients.calls", tr.calls["seqcore.quotients"], "count")
    put("seqcore.quotients.self_s", tr.self_s["seqcore.quotients"], "s")
    put("seqcore.io.self_s", _group(tr, [f"seqcore.{n}" for n in SEQCORE_IO])[1], "s")
    put("seqcore.io.bytes", tr.counts["seqcore.io.bytes"], "bytes")

    for n in TRANSFORM_SPANS:
        put(f"transforms.{n}.calls", tr.calls[f"transforms.{n}"], "count")
        put(f"transforms.{n}.self_s", tr.self_s[f"transforms.{n}"], "s")
    put("transforms.dual.entries_out", tr.counts["transforms.dual.entries_out"], "count")
    put("transforms.refusals", tr.counts["transforms.refusals"], "count")

    for n in WINDOW_SPANS:
        put(f"weights.{n}.calls", tr.calls[f"weights.{n}"], "count")
        put(f"weights.{n}.self_s", tr.self_s[f"weights.{n}"], "s")
    put("weights.omega.entries_scanned", tr.counts["weights.omega.entries_scanned"], "count")
    put("weights.omega.untrusted", tr.counts["weights.omega.untrusted"], "count")
    put("weights.counting.censored", tr.counts["weights.counting.censored"], "count")

    for n in ("omega_mp", "log_g"):
        put(f"weights.{n}.calls", tr.calls[f"weights.{n}"], "count")
        put(f"weights.{n}.self_s", tr.self_s[f"weights.{n}"], "s")
    put("weights.log_h.calls", tr.calls["weights.log_h"], "count")
    put("weights.build_gauge.self_s", tr.self_s["weights.build_gauge"], "s")

    put("analysis.check_property.self_s", tr.self_s["analysis.check_property"], "s")
    for short in ANALYSIS_CHECKS.values():
        put(f"analysis.{short}.self_s", tr.self_s[f"analysis.{short}"], "s")
    put("analysis.mg.peak_alloc_mb", tr.mg_peak_bytes / 2**20, "MB")
    for v in VERDICTS:
        put(f"analysis.verdict.{v}", tr.counts[f"analysis.verdict.{v}"], "count")

    for n in EXTENSION_SPANS:
        put(f"extension.{n}.calls", tr.calls[f"extension.{n}"], "count")
        put(f"extension.{n}.self_s", tr.self_s[f"extension.{n}"], "s")

    for n in OPERATOR_SPANS:
        put(f"operator_lab.{n}.self_s", tr.self_s[f"operator_lab.{n}"], "s")
    for c in CERTIFICATES:
        put(f"operator_lab.certificate.{c}", tr.counts[f"operator_lab.certificate.{c}"], "count")

    for cid in CRITERIA:
        put(f"acceptance.criterion.{cid}.s", criterion_s.get(cid, 0.0), "s")

    put("cli.dump_report.self_s", tr.self_s["cli.dump_report"], "s")
    put("cli.report_bytes", tr.counts["cli.report_bytes"], "bytes")

    for attr in MPMATH_COUNTED:
        put(f"mpmath.{attr}.calls", tr.counts[f"mpmath.{attr}.calls"], "count")

    put("trace.coverage_frac",
        timed_attributed_s / timed_wall_s if timed_wall_s > 0 else 0.0, "fraction")
    return m


def span_table(tracer: Tracer) -> dict:
    """Every span's calls, total and self time, for the run record."""
    return {name: {"calls": tracer.calls[name],
                   "total_s": tracer.total[name],
                   "self_s": tracer.self_s[name]}
            for name in sorted(tracer.calls)}
