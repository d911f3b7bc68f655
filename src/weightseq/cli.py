"""Batch front-end: analyze sequences, run transform chains, sample the
associated weight, and execute the verification battery.

Sequence specs use the inline mini-language ``family:param`` ("gevrey:0.5",
"qgevrey:2") or ``file:path.json``.  Reports are deterministic: key order is
fixed and floats are printed with 17 significant digits, so identical inputs
and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import acceptance, analysis, seqcore, transforms, weights
from .errors import InvalidSequenceError, WeightSeqError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HARD = 2


# ---------------------------------------------------------------------------
# deterministic JSON
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if x != x or x in (float("inf"), float("-inf")):
            return json.dumps(str(x))
        return f"{x:.17g}"
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if isinstance(value, dict):
        inner = ", ".join(f"{_fmt(str(k))}: {_fmt(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if dataclasses.is_dataclass(value):
        inner = ", ".join(f"{_fmt(f.name)}: {_fmt(getattr(value, f.name))}"
                          for f in dataclasses.fields(value))
        return "{" + inner + "}"
    return _fmt(str(value))


def dump_report(obj, path=None) -> str:
    text = _fmt(obj) + "\n"
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidSequenceError(f"cannot write report file {path}: {exc}") from exc
    return text


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    M = seqcore.make_family(args.sequence, P=args.P)
    report = {"sequence": M.name, "P": M.P, "provenance": M.provenance,
              "properties": {}, "indices": {}}
    for prop in analysis.PROPERTY_NAMES:
        v = analysis.check_property(M, prop)
        report["properties"][prop] = v
    try:
        mu = seqcore.quotients(M)
        report["indices"]["quotients_upper"] = analysis.matuszewska(mu, "upper")
        report["indices"]["quotients_lower"] = analysis.matuszewska(mu, "lower")
    except WeightSeqError as exc:
        report["indices"]["error"] = str(exc)
    text = dump_report(report, args.out)
    if not args.out:
        sys.stdout.write(text)
    return EXIT_OK


_TRANSFORMS = {
    "conjugate": transforms.conjugate,
    "dual": transforms.dual,
    "bidual": transforms.bidual,
    "regularize": lambda M: transforms.regularize_almost_decreasing(M).L,
    "normalize-head": lambda M: transforms.normalize_head(M).L,
    "lcm": transforms.log_convex_minorant,
    "m": seqcore.little_m,
    "root": seqcore.root_sequence,
}


def _apply_transform(M, name):
    if name in _TRANSFORMS:
        return _TRANSFORMS[name](M)
    if name.startswith("shift:"):
        return seqcore.factorial_shift(M, name.split(":", 1)[1])
    raise InvalidSequenceError(
        f"unknown transform {name!r}; known: {', '.join(_TRANSFORMS)}, shift:s")


def _cmd_transform(args) -> int:
    M = seqcore.make_family(args.sequence, P=args.P)
    for step in args.chain:
        M = _apply_transform(M, step)
    out = args.out or "transformed.json"
    seqcore.save_sequence(M, out)
    sys.stdout.write(f"wrote {out} ({M.name}, P={M.P})\n")
    return EXIT_OK


def _cmd_omega(args) -> int:
    if args.points < 0:
        raise InvalidSequenceError(f"omega: --points must be >= 0, got {args.points}")
    for flag, t in (("--t-min", args.t_min), ("--t-max", args.t_max)):
        if t is not None and not (math.isfinite(t) and t > 0):
            raise InvalidSequenceError(f"omega: {flag} must be finite and > 0, got {t}")
    M = seqcore.make_family(args.sequence, P=args.P)
    aw = weights.AssociatedWeight.of(M)
    hi = args.t_max if args.t_max else aw.valid_to * 0.95
    grid = np.geomspace(max(args.t_min, 1e-6), hi, args.points)
    out = args.out or "omega.csv"
    rows = aw.write_csv(out, grid)
    sys.stdout.write(f"wrote {out} ({len(rows)} rows, valid_to={aw.valid_to:.6g})\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        results = acceptance.run_suite(args.suite, seed=args.seed,
                                       markin_terms=args.terms)
    except KeyError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_USAGE
    for r in results:
        sys.stdout.write(r.line() + "\n")
    if args.out:
        # timings stay on stdout; the report file is byte-reproducible
        report = {"suite": args.suite, "seed": args.seed,
                  "results": [{"criterion": r.cid, "title": r.title,
                               "passed": r.passed,
                               "details": r.details} for r in results]}
        dump_report(report, args.out)
        sys.stdout.write(f"wrote {args.out}\n")
    return EXIT_OK if all(r.passed for r in results) else EXIT_HARD


@functools.cache  # parse_args returns a fresh Namespace on every call
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="weightseq",
        description="weight-sequence calculus: analyze, transform, verify")
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run the predicate battery on a sequence")
    pa.add_argument("sequence", help="gevrey:a | qgevrey:q | file:path.json")
    pa.add_argument("--P", type=int, default=None, help="window length (default 512)")
    pa.add_argument("--out", default=None, help="write JSON report here")
    pa.set_defaults(fn=_cmd_analyze)

    pt = sub.add_parser("transform", help="apply a chain of transforms")
    pt.add_argument("sequence")
    pt.add_argument("chain", nargs="*", help=f"{', '.join(_TRANSFORMS)}, shift:s")
    pt.add_argument("--P", type=int, default=None)
    pt.add_argument("--out", default=None)
    pt.set_defaults(fn=_cmd_transform)

    po = sub.add_parser("omega", help="sample the associated weight to CSV")
    po.add_argument("sequence")
    po.add_argument("--P", type=int, default=None)
    po.add_argument("--t-min", type=float, default=1.0)
    po.add_argument("--t-max", type=float, default=None)
    po.add_argument("--points", type=int, default=64)
    po.add_argument("--out", default=None)
    po.set_defaults(fn=_cmd_omega)

    pv = sub.add_parser("verify", help="run an acceptance suite")
    pv.add_argument("suite", help=f"one of: {', '.join(acceptance.SUITES)}")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--terms", type=int, default=120,
                    help="ring terms for the boundedness demonstration")
    pv.add_argument("--out", default=None)
    pv.set_defaults(fn=_cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except InvalidSequenceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except WeightSeqError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_HARD


if __name__ == "__main__":
    sys.exit(main())
