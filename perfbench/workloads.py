"""The benchmark's workloads.

Each workload is a closed loop with one caller on one thread: the next
operation starts when the previous one returned.  A workload builds its
inputs from the seed in ``setup`` (and, for later passes, in ``prepare``,
outside the timed region), runs one pass of operations in ``run`` timing
every operation on its own, and checks every outcome against an oracle in
``check`` after the pass, so checking never lands inside a timing.

An outcome is either the value returned or the exception raised.  A
documented refusal (a WeightSeqError the oracle predicts) is a correct
outcome; a wrong value, an unexpected refusal and any other exception are
failures.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from collections import Counter
from typing import NamedTuple

import numpy as np

import oracles as O


class Raised(NamedTuple):
    """An exception an op raised.  Only its type and message are kept: the
    exception's traceback would pin the frames' arrays until the check and
    inflate the process's peak memory."""

    name: str
    message: str


def _classify(outcome) -> str:
    return outcome.name if isinstance(outcome, Raised) else "ok"


def _refused(outcome, exc_name: str) -> bool:
    return isinstance(outcome, Raised) and outcome.name == exc_name


class Workload:
    name = ""
    min_passes = 1      # passes a timed run makes at least
    trace_passes = 1    # fixed passes of a traced run (and its untraced twin)

    def __init__(self, seed: int, smoke: bool, tmpdir: str):
        self.seed = seed
        self.smoke = smoke
        self.tmpdir = tmpdir
        self.outcomes = Counter()
        self.failures = []

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, i: int):
        raise NotImplementedError

    def run(self, ops) -> tuple:
        """Run one pass; returns (wall_s, [OpRecord])."""
        raise NotImplementedError

    def check(self, ops, records) -> int:
        """Check a pass; returns the number of failed ops."""
        raise NotImplementedError

    def latencies(self, wall, records) -> list:
        """The pass's samples for op_p50_ms and op_tail_ms: one per op."""
        return [s for _, s, _ in records]

    def _fail(self, kind: str, msg: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(f"{kind}: {msg}")


def _timed_loop(ops, call) -> tuple:
    from weightseq.errors import WeightSeqError

    records = []
    clock = time.perf_counter
    start = clock()
    for op in ops:
        t0 = clock()
        try:
            out = call(op)
        except WeightSeqError as exc:
            out = Raised(type(exc).__name__, str(exc))
        except Exception as exc:  # any other exception fails the op in check()
            out = Raised(f"unexpected {type(exc).__name__}", str(exc))
        records.append((op[0], clock() - t0, out))
    return clock() - start, records


# ---------------------------------------------------------------------------
# verify_all
# ---------------------------------------------------------------------------

class VerifyAll(Workload):
    """`weightseq verify all --seed <seed>`; one checked op is one
    criterion, one latency sample is one command."""

    name = "verify_all"

    def setup(self):
        from weightseq import acceptance, cli

        self.cli = cli
        self.criteria = []
        inner = acceptance.run_criterion

        def timed_criterion(cid, **kwargs):
            t0 = time.perf_counter()
            res = inner(cid, **kwargs)
            self.criteria.append((cid, time.perf_counter() - t0))
            return res

        acceptance.run_criterion = timed_criterion
        self.terms = 12 if self.smoke else 120
        self.reports = []

    def prepare(self, i):
        return os.path.join(self.tmpdir, f"verify_{i}.json")

    def run(self, out):
        self.criteria = []
        argv = ["verify", "all", "--seed", str(self.seed),
                "--terms", str(self.terms), "--out", out]
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception as exc:  # reported as a broken battery by check()
                rc = Raised(type(exc).__name__, str(exc))
            wall = time.perf_counter() - t0
        self.rc = rc
        return wall, [(f"criterion.{cid}", s, None) for cid, s in self.criteria]

    def latencies(self, wall, records):
        """One sample per `verify all` command.  Criteria stay the unit of
        checking and each one's time is a per-layer metric, but as latency
        samples they are too few and too small: the median of a run's 22
        criteria is a 5-8 ms check taken at two instants, and on a shared
        host it moved by a quarter between seeds."""
        return [wall]

    def check(self, out, records):
        n = len(records)
        if self.rc != 2 or not os.path.exists(out):
            self._fail("verify", f"exit {self.rc!r}, report written: {os.path.exists(out)}")
            self.outcomes["battery:broken"] += 1
            return max(n, 1)
        with open(out, "rb") as fh:
            raw = fh.read()
        os.unlink(out)
        report = json.loads(raw)
        results = {r["criterion"]: r for r in report["results"]}
        failed = 0
        for cid in (str(i) for i in range(1, 12)):
            why = "missing" if cid not in results else O.criterion_expected(cid, results[cid])
            self.outcomes[f"criterion.{cid}:{'ok' if why is None else 'wrong'}"] += 1
            if why is not None:
                failed += 1
                self._fail(f"criterion {cid}", why)
        # byte reproducibility: every battery of a run writes the same report,
        # and at seed 0 the one the seed commit wrote
        digest = hashlib.md5(raw).hexdigest()
        self.reports.append(digest)
        reference = O.VERIFY_SEED0_MD5 if self.seed == 0 and not self.smoke else self.reports[0]
        if digest != reference:
            self._fail("verify", f"report md5 {digest} != {reference}")
            self.outcomes["report:changed"] += 1
            return n
        return failed


# ---------------------------------------------------------------------------
# window_query
# ---------------------------------------------------------------------------

# op kind -> count per pass; the mix is fixed so passes are comparable and
# only the arguments change with the seed.  Latency clusters by kind: the
# omega scans (30% of ops), counting (30%), omega_extended and the integral
# residual, then taylor_majorant (7.5%), so the median falls inside the
# counting cluster and p99 inside the taylor_majorant one.
QUERY_MIX = (("omega", 90), ("aw_eval", 30), ("aw_argmax", 30), ("aw_trusted", 30),
             ("counting", 180), ("omega_extended", 60), ("irr", 135), ("taylor", 45))
OUTSIDE_SHARE = 0.12      # window arguments drawn beyond the trusted range
EXTENDED_SPAN = 2.0       # omega_extended: ln t up to ln(valid_to) + this
TAYLOR_SEQ = (0, 0, 1, 0, 0, 2)  # taylor_majorant mostly on the small order


class WindowQuery(Workload):
    """Single window queries against a few long generator-backed sequences."""

    name = "window_query"
    min_passes = 3
    trace_passes = 2

    def setup(self):
        import weightseq as ws

        self.ws = ws
        rng = np.random.default_rng([self.seed, 0])
        self.P = 20_000 if self.smoke else 100_000
        self.fams = [O.Family("gevrey", round(rng.uniform(0.3, 0.7), 6)),
                     O.Family("gevrey", round(rng.uniform(1.3, 2.0), 6)),
                     O.Family("qgevrey", round(rng.uniform(1.2, 2.5), 6))]
        self.seqs = [ws.make_family(f.spec, P=self.P) for f in self.fams]
        self.aws = [ws.AssociatedWeight.of(M) for M in self.seqs]
        self.refs = None

    def prepare(self, i):
        rng = np.random.default_rng([self.seed, 1, i])
        scale = 0.1 if self.smoke else 1.0
        ops = []
        for kind, count in QUERY_MIX:
            for j in range(max(1, int(count * scale))):
                s = TAYLOR_SEQ[j % len(TAYLOR_SEQ)] if kind == "taylor" else j % 3
                ops.append(self._draw(kind, s, rng))
        order = rng.permutation(len(ops))
        return [ops[k] for k in order]

    def _draw(self, kind, s, rng):
        log_vt = math.log(self.aws[s].valid_to)
        if kind == "omega_extended":
            hi = min(log_vt + EXTENDED_SPAN, 709.0)
            return (kind, s, math.exp(rng.uniform(min(log_vt + 0.05, hi), hi)))
        if kind == "taylor":
            h, A = rng.uniform(0.25, 2.0), rng.uniform(0.5, 4.0)
            fam = self.fams[s]
            top = (1.0 - fam.param) * math.log(self.P) + 1.0 if s == 0 else 5.0
            z = math.exp(rng.uniform(-1.0, top)) / (2.0 * h)
            return (kind, s, (h, A, z))
        if rng.uniform() < OUTSIDE_SHARE:
            log_t = rng.uniform(log_vt, min(log_vt + 3.0, 709.0))
        else:
            log_t = rng.uniform(-1.0, log_vt)
        return (kind, s, math.exp(log_t))

    def run(self, ops):
        ws, seqs, aws = self.ws, self.seqs, self.aws
        from weightseq import extension

        calls = {
            "omega": lambda s, t: ws.omega(seqs[s], t),
            "counting": lambda s, t: ws.counting(seqs[s], t),
            "aw_eval": lambda s, t: aws[s].eval(t),
            "aw_argmax": lambda s, t: aws[s].argmax(t),
            "aw_trusted": lambda s, t: aws[s].trusted(t),
            "irr": lambda s, t: ws.integral_representation_residual(seqs[s], t),
            "omega_extended": lambda s, t: ws.omega_extended(seqs[s], t),
            "taylor": lambda s, a: extension.taylor_majorant(seqs[s], *a),
        }
        return _timed_loop(ops, lambda op: calls[op[0]](op[1], op[2]))

    def check(self, ops, records):
        if self.refs is None:
            self.refs = [O.WindowRef(f.logM(self.P)) for f in self.fams]
            self.conj_logM = [O.lnfact(self.P) - r.logM for r in self.refs]
        failed = 0
        for (kind, s, arg), (_, _, out) in zip(ops, records):
            why = self._verify(kind, s, arg, out)
            self.outcomes[f"{kind}:{_classify(out)}"] += 1
            if why is not None:
                failed += 1
                self._fail(kind, f"{self.fams[s].spec} arg={arg!r}: {why} (got {out!r})")
        return failed

    def _verify(self, kind, s, arg, out):
        W = self.refs[s]
        if kind == "taylor":
            ref = O.taylor_ref(self.conj_logM[s], *arg)
            if ref is None:
                return None if _refused(out, "UntrustedEvaluationError") else "expected refusal"
            if isinstance(out, Raised):
                return "unexpected refusal"
            lhs, rhs = ref
            if not (O.close(out.log_lhs, lhs) and O.close(out.log_rhs, rhs)):
                return f"sides differ from ({lhs}, {rhs})"
            return None if out.log_lhs <= out.log_rhs else "majorant bound violated"
        t = arg
        if kind == "omega_extended":
            value, _ = O.omega_extended_ref(self.fams[s], t)
            if isinstance(out, Raised):
                return "unexpected refusal"
            term = out.argmax * math.log(t) - self.fams[s].logM_at(out.argmax)
            ok = out.trusted and O.close(out.value, value) and (
                out.argmax == 0 if value == 0.0 else O.close(term, value))
            return None if ok else f"expected {value}"
        value, _, trusted = W.omega(t)
        count = W.counting(t)
        if kind == "counting":
            if count is None:
                return None if _refused(out, "CensoredWindowError") else "expected censoring"
            return None if out == count else f"expected {count}"
        if kind == "irr":
            if count is None or not trusted:
                return None if _refused(out, "CensoredWindowError") else "expected censoring"
            if isinstance(out, Raised):
                return "unexpected refusal"
            return None if 0.0 <= out <= O.REL_TOL * max(1.0, value) else "identity residual too large"
        if isinstance(out, Raised):
            return "unexpected exception"
        if kind == "omega":
            ok = (O.close(out.value, value) and out.trusted == trusted
                  and W.argmax_ok(t, out.argmax, out.value))
        elif kind == "aw_eval":
            ok = O.close(out, value)
        elif kind == "aw_argmax":
            ok = W.argmax_ok(t, out, value)
        else:
            ok = out == trusted
        return None if ok else f"expected value={value} trusted={trusted}"


# ---------------------------------------------------------------------------
# window_build
# ---------------------------------------------------------------------------

# (family, P, transform chain) of the sequences of one pass.  Every
# sequence goes once through `analyze` and once through its chain; the
# chains cover every transform, valid for the family (regularize on an
# order above 1 or on q-Gevrey is a documented refusal).  Op latency
# clusters by kind and P (2-vCPU Xeon, allocator pinned as in run.py):
# about 8 cheap transforms (< 9 ms), the 4 analyze at 512 and the custom
# transforms at 2048 (10-20 ms), the other ops at 1024 and the q-Gevrey
# chain at 2048 (20-45 ms), and the 5 analyze at 2048 (115-200 ms).  Of
# the 24 ops the median falls between the 12th and 13th, inside the
# 10-20 ms cluster, and p90 (the tail reported at 5 passes) inside the
# analyze-2048 one, away from the jumps.
BUILD_SLOTS = (
    ("glo", 512, ("conjugate", "conjugate")),
    ("ghi", 512, ("m", "dual")),
    ("custom", 512, ("lcm", "dual")),
    ("custom", 512, ("root",)),
    ("glo", 1024, ("bidual",)),
    ("ghi", 1024, ("regularize",)),
    ("q", 1024, ("regularize",)),
    ("glo", 2048, ("regularize", "m", "shift:0.5")),
    ("ghi", 2048, ("lcm", "m", "dual", "root")),
    ("q", 2048, ("conjugate", "conjugate", "shift:0.25", "m", "root")),
    ("custom", 2048, ("lcm", "m", "shift:0.5")),
    ("custom", 2048, ("lcm", "conjugate")),
)
SMOKE_SLOTS = (("glo", 256, ("bidual",)), ("ghi", 256, ("regularize",)),
               ("q", 256, ("conjugate", "conjugate", "m")),
               ("custom", 256, ("lcm", "dual")))
REGULARIZE_REFUSAL = "regularize: tail sup of mu_q/q unresolved"


class WindowBuild(Workload):
    """Fresh sequences, each analyzed once and transformed once via the CLI."""

    name = "window_build"
    min_passes = 5
    trace_passes = 2

    def setup(self):
        from weightseq import cli

        self.cli = cli
        self.first = self._make_inputs(0)

    def prepare(self, i):
        if i == 0:
            return self.first
        return self._make_inputs(i)

    def _make_inputs(self, i):
        rng = np.random.default_rng([self.seed, 2, i])
        slots = SMOKE_SLOTS if self.smoke else BUILD_SLOTS
        ops = []
        for j, (slot, P, chain) in enumerate(slots):
            base = os.path.join(self.tmpdir, f"p{i}_s{j}")
            if slot == "custom":
                alpha = rng.uniform(0.6, 1.2)
                logM = alpha * O.lnfact(P)
                logM[1:] += 0.02 * rng.uniform(size=P)
                fam, spec, logM = None, f"file:{base}_in.json", logM
                doc = {"name": f"custom-{i}-{j}", "P": P,
                       "family": {"type": "custom", "params": {}},
                       "logM": [float(x) for x in logM], "provenance": "custom"}
                with open(f"{base}_in.json", "w") as fh:
                    json.dump(doc, fh)
                pargs = []
            else:
                if slot == "glo":
                    fam = O.Family("gevrey", round(rng.uniform(0.4, 0.85), 6))
                elif slot == "ghi":
                    fam = O.Family("gevrey", round(rng.uniform(1.35, 2.0), 6))
                else:
                    fam = O.Family("qgevrey", round(rng.uniform(1.2, 2.5), 6))
                spec, logM, pargs = fam.spec, None, ["--P", str(P)]
            seq = {"slot": slot, "P": P, "fam": fam, "logM": logM, "chain": chain}
            ops.append(("analyze", seq, ["analyze", spec, *pargs, "--out", f"{base}_an.json"]))
            ops.append(("transform", seq,
                        ["transform", spec, *chain, *pargs, "--out", f"{base}_tr.json"]))
        return ops

    def run(self, ops):
        cli = self.cli
        sink = io.StringIO()

        def call(op):
            sink.seek(0)
            sink.truncate()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return cli.main(op[2]), sink.getvalue()

        return _timed_loop(ops, call)

    def check(self, ops, records):
        failed = 0
        for (kind, seq, argv), (_, _, out) in zip(ops, records):
            path = argv[-1]
            if isinstance(out, Raised):
                why, label = f"raised {out!r}", _classify(out)
            elif kind == "analyze":
                why, label = self._check_analyze(seq, out, path)
            else:
                why, label = self._check_transform(seq, out, path)
            self.outcomes[f"{kind}.{seq['slot']}:{label}"] += 1
            if why is not None:
                failed += 1
                self._fail(kind, f"{' '.join(argv[:-2])}: {why}")
            if os.path.exists(path):
                os.unlink(path)
        for _, seq, argv in ops[::2]:
            if argv[1].startswith("file:"):
                os.unlink(argv[1][5:])
        return failed

    def _check_analyze(self, seq, out, path):
        rc, _ = out
        if rc != 0:
            return f"exit {rc}", f"exit{rc}"
        with open(path) as fh:
            rep = json.load(fh)
        if rep["P"] != seq["P"]:
            return f"P {rep['P']} != {seq['P']}", "ok"
        status = {k: v["status"] for k, v in rep["properties"].items()}
        fam = seq["fam"]
        if fam is None:
            want = O.window_verdicts(seq["logM"])
            bad = {k: status[k] for k in want if status[k] != want[k]}
        else:
            want = O.theory_verdicts(fam)
            bad = {k: status[k] for k in want
                   if status[k] not in (want[k], "inconclusive")}
        if bad:
            return f"verdicts {bad} contradict {want}", "ok"
        idx = rep["indices"]
        if "error" in idx:
            return f"index error {idx['error']}", "ok"
        up, lo = idx["quotients_upper"], idx["quotients_lower"]
        if fam is not None and fam.kind == "gevrey":
            if not (O.close(up["hi"], fam.param, 1e-7) and O.close(lo["lo"], fam.param, 1e-7)):
                return f"indices {lo['lo']}, {up['hi']} != {fam.param}", "ok"
        elif fam is not None and not up["unbounded_flag"]:
            return "q-Gevrey upper index not flagged unbounded", "ok"
        elif not lo["lo"] <= up["hi"]:
            return "lower index above upper index", "ok"
        return None, "ok"

    def _check_transform(self, seq, out, path):
        rc, text = out
        fam = seq["fam"]
        logM = seq["logM"] if fam is None else fam.logM(seq["P"])
        expected, refusal = logM, None
        for step in seq["chain"]:
            if step == "regularize" and fam is not None and not (
                    fam.kind == "gevrey" and fam.param < 1):
                refusal = REGULARIZE_REFUSAL
                break
            expected, fam = O.apply_step(step, expected, fam)
            if expected is None:
                refusal = "counting range"
                break
        if refusal is not None:
            if rc == 2 and refusal in text and not os.path.exists(path):
                return None, "refused"
            return f"expected refusal {refusal!r}, got exit {rc}: {text.strip()}", f"exit{rc}"
        if rc != 0:
            return f"exit {rc}: {text.strip()}", f"exit{rc}"
        with open(path) as fh:
            doc = json.load(fh)
        got = np.asarray(doc["logM"], dtype=float)
        if doc["P"] != got.size - 1:
            return "P field disagrees with logM length", "ok"
        if not O.arrays_close(got, expected):
            if got.shape != expected.shape:
                return f"window {got.size - 1} != {expected.size - 1}", "ok"
            k = int(np.argmax(np.abs(got - expected)))
            return f"logM[{k}] = {got[k]!r}, expected {expected[k]!r}", "ok"
        if "lcm" in seq["chain"][-1:] and np.any(got > logM + 1e-9 * (1 + np.abs(logM))):
            return "log-convex minorant exceeds its input", "ok"
        return None, "ok"


WORKLOADS = {w.name: w for w in (VerifyAll, WindowQuery, WindowBuild)}
