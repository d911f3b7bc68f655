"""Core weight-sequence type and elementary views.

A weight sequence M = (M_p) is a positive sequence governing derivative
bounds of a smoothness class.  All magnitudes are stored as natural logs:
the q-Gevrey family q^(p^2) overflows native floats near p ~ 40, while its
log is perfectly tame.  Products and quotients of sequence terms therefore
become sums and differences, and series of terms are accumulated with
log-sum-exp.

Derived views:

  m_p  = M_p / p!          (the "little" sequence)
  mu_p = M_p / M_{p-1}     (quotients; mu_0 := 1)
  rho_p = (M_p)^(1/p)      (root sequence quotients)

Log-convexity of M is equivalent to mu being non-decreasing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import gammaln

from .errors import InvalidSequenceError

DEFAULT_P = 512

# generator must reproduce stored logM to this relative slack
GENERATOR_MATCH_RTOL = 1e-12


def log_factorial(p):
    """ln p! via log-gamma; accepts scalars or arrays, works far beyond the window."""
    return gammaln(np.asarray(p, dtype=float) + 1.0)


@dataclass(frozen=True)
class ClosedForm:
    """ln M_p = a ln Gamma(p+1) + b p^2, evaluable at any real p >= 0.

    Both builtin families are of this form (gevrey: (alpha, 0), qgevrey:
    (0, ln q)), and so is every image under conjugation (1-a, -b), little m
    (a-1, b) and the factorial shift by s (a+s, b).  The quotients
    ln mu_p = a ln p + b (2p-1) are evaluated directly: a log-gamma
    difference at p ~ 1e12 or beyond would cancel.  Zero coefficients are
    skipped, so a builtin member evaluates exactly like its one-term formula.
    """

    a: float = 0.0
    b: float = 0.0

    def __call__(self, p):
        """ln M_p in float for a scalar or an array of indices."""
        p = np.asarray(p, dtype=float)
        out = self.a * gammaln(p + 1.0) if self.a else np.zeros_like(p)
        return out + self.b * (p * p) if self.b else out

    def log_M_mp(self, p):
        """ln M_p in mpmath, for indices far beyond float resolution."""
        import mpmath as mp
        out = mp.mpf(self.a) * mp.loggamma(p + 1) if self.a else mp.mpf(0)
        return out + mp.mpf(self.b) * p * p if self.b else out

    def log_mu(self, p):
        """ln mu_p in float (p >= 1)."""
        p = np.asarray(p, dtype=float)
        out = self.a * np.log(p) if self.a else np.zeros_like(p)
        return out + self.b * (2.0 * p - 1.0) if self.b else out

    def log_mu_mp(self, p):
        """ln mu_p in mpmath (p >= 1)."""
        import mpmath as mp
        out = mp.mpf(self.a) * mp.log(p) if self.a else mp.mpf(0)
        return out + mp.mpf(self.b) * (2 * p - 1) if self.b else out

    def conjugate(self) -> "ClosedForm":
        return ClosedForm(1.0 - self.a, -self.b)

    def little_m(self) -> "ClosedForm":
        return ClosedForm(self.a - 1.0, self.b)

    def shift(self, s: float) -> "ClosedForm":
        return ClosedForm(self.a + s, self.b)


@dataclass(frozen=True)
class WeightSequence:
    """Finite truncation of a positive sequence, stored in log domain.

    logM[p] = ln M_p for p = 0..P.  When ``generator`` is present it
    evaluates ln M_p for arbitrary p (beyond the window) and must agree
    with the stored values on 0..P.  A ``ClosedForm`` generator also
    evaluates in mpmath and gives the quotients directly, which is what
    evaluation at astronomically large indices needs; any other callable
    is a float-only generator.
    """

    name: str
    logM: np.ndarray
    generator: Optional[Callable] = None
    provenance: str = "custom"

    def __post_init__(self):
        arr = np.asarray(self.logM, dtype=float)
        if arr.ndim != 1:
            raise InvalidSequenceError("logM must be one-dimensional")
        if arr.size < 9:
            raise InvalidSequenceError("truncation too short: need P >= 8")
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise InvalidSequenceError(f"non-finite logM entry at p={bad}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "logM", arr)
        g = self.generator
        if g is not None:
            p = np.arange(self.P + 1)
            gen = np.asarray(g(p), dtype=float)
            scale = np.abs(arr)
            if isinstance(g, ClosedForm):
                # the transforms add and subtract whole ln p! terms, so a
                # closed-form window carries their rounding even where the
                # net coefficient is small: ln p! - (1 - 1e-6) ln p!
                scale = ClosedForm(max(abs(g.a), 1.0), abs(g.b))(p)
            tol = GENERATOR_MATCH_RTOL * (1.0 + scale)
            if np.any(np.abs(gen - arr) > tol):
                bad = int(np.flatnonzero(np.abs(gen - arr) > tol)[0])
                raise InvalidSequenceError(
                    f"generator disagrees with stored logM at p={bad}"
                )

    @property
    def P(self) -> int:
        return self.logM.size - 1

    def extended(self, P_new: int) -> "WeightSequence":
        """Re-materialise on a longer window; requires a generator."""
        if P_new <= self.P:
            return self
        if self.generator is None:
            raise InvalidSequenceError(
                f"{self.name}: cannot extend window to P={P_new} without a generator"
            )
        logM = np.asarray(self.generator(np.arange(P_new + 1)), dtype=float)
        # keep the stored head bit-exact
        logM[: self.P + 1] = self.logM
        return WeightSequence(self.name, logM, self.generator, self.provenance)

    def __repr__(self):
        return f"WeightSequence({self.name!r}, P={self.P})"


@dataclass(frozen=True)
class QuotientView:
    """Log quotients ln mu_p with mu_0 := 1 (logmu[0] = 0)."""

    logmu: np.ndarray

    @property
    def P(self) -> int:
        return self.logmu.size - 1

    def is_nondecreasing(self, tol: float = 0.0) -> bool:
        return bool(np.all(np.diff(self.logmu[1:]) >= -tol))


@dataclass(frozen=True)
class SequenceFamily:
    """One-parameter family beta -> WeightSequence.

    ``maker(beta, P)`` returns the member for parameter beta; members are
    expected to be pointwise ordered in beta.
    """

    name: str
    maker: Callable[[float, int], WeightSequence]
    P: int = DEFAULT_P

    def member(self, beta: float, P: Optional[int] = None) -> WeightSequence:
        return self.maker(float(beta), int(P if P is not None else self.P))


# ---------------------------------------------------------------------------
# builtin families
# ---------------------------------------------------------------------------

def gevrey(alpha: float, P: int = DEFAULT_P) -> WeightSequence:
    """Gevrey sequence of order alpha: M_p = (p!)^alpha, alpha >= 0."""
    if not (alpha >= 0) or not math.isfinite(alpha):
        raise InvalidSequenceError(f"gevrey order must be >= 0, got {alpha}")
    form = ClosedForm(float(alpha))  # mu_p = p^alpha
    return WeightSequence(f"gevrey({alpha:g})", form(np.arange(P + 1)), form,
                          provenance=f"builtin:gevrey({alpha:g})")


def qgevrey(q: float, P: int = DEFAULT_P) -> WeightSequence:
    """q-Gevrey sequence M_p = q^(p^2), q > 1."""
    if not (q > 1) or not math.isfinite(q):
        raise InvalidSequenceError(f"q-gevrey base must be > 1, got {q}")
    form = ClosedForm(0.0, math.log(q))  # mu_p = q^(2p-1)
    return WeightSequence(f"qgevrey({q:g})", form(np.arange(P + 1)), form,
                          provenance=f"builtin:qgevrey({q:g})")


def custom(logM, name: str = "custom") -> WeightSequence:
    """Wrap an explicit array of ln M_p values."""
    arr = np.asarray(logM, dtype=float)
    if arr.size and not np.all(np.isfinite(arr)):
        raise InvalidSequenceError("custom sequence has non-finite entries")
    return WeightSequence(name, arr, provenance="custom")


def small_gevrey_family(alpha_of_beta: Callable[[float], float] = None,
                        P: int = DEFAULT_P,
                        name: str = "small-gevrey") -> SequenceFamily:
    """Family beta -> gevrey(alpha(beta)) with alpha(beta) in [0, 1).

    Default reparametrisation alpha = beta/(beta+1) covers all small Gevrey
    orders as beta ranges over (0, inf).
    """
    if alpha_of_beta is None:
        alpha_of_beta = lambda b: b / (b + 1.0)

    def maker(beta, PP):
        a = alpha_of_beta(beta)
        if not (0 <= a < 1):
            raise InvalidSequenceError(f"family parameter maps outside [0,1): {a}")
        return gevrey(a, PP)

    return SequenceFamily(name, maker, P)


def _number(value, what: str) -> float:
    """float(value), or InvalidSequenceError naming the malformed input."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise InvalidSequenceError(f"{what} must be a number, got {value!r}") from None


def _family_param(fam: dict, key: str) -> float:
    """A numeric parameter of a JSON family block; a missing one reads as None."""
    params = fam.get("params")
    return _number(params.get(key) if isinstance(params, dict) else None,
                   f"parameter {key!r} of family block {fam!r}")


def make_family(spec, P: Optional[int] = None) -> WeightSequence:
    """Build a sequence from an inline descriptor.

    Accepts "gevrey:0.5", "qgevrey:2", "file:path.json", or a gevrey or
    qgevrey JSON family block ({"type": ..., "params": {...}}).
    """
    PP = DEFAULT_P if P is None else int(P)
    if isinstance(spec, dict):
        kind = spec.get("type")
        if kind == "gevrey":
            return gevrey(_family_param(spec, "alpha"), PP)
        if kind == "qgevrey":
            return qgevrey(_family_param(spec, "q"), PP)
        if kind == "custom":
            raise InvalidSequenceError("custom family block needs explicit logM data")
        raise InvalidSequenceError(f"unknown family type {kind!r}")
    text = str(spec)
    if ":" not in text:
        raise InvalidSequenceError(f"cannot parse sequence spec {text!r}")
    kind, _, arg = text.partition(":")
    kind = kind.strip().lower()
    if kind == "gevrey":
        return gevrey(_number(arg, f"gevrey order in {text!r}"), PP)
    if kind == "qgevrey":
        return qgevrey(_number(arg, f"q-gevrey base in {text!r}"), PP)
    if kind == "file":
        seq = load_sequence(arg)
        return seq if P is None else seq.extended(PP) if PP > seq.P else seq
    raise InvalidSequenceError(f"unknown sequence family {kind!r}")


# ---------------------------------------------------------------------------
# elementary operations
# ---------------------------------------------------------------------------

def quotients(M: WeightSequence) -> QuotientView:
    """Quotient view: logmu[0] = 0, logmu[p] = logM[p] - logM[p-1]."""
    logmu = np.empty(M.P + 1)
    logmu[0] = 0.0
    logmu[1:] = np.diff(M.logM)
    return QuotientView(logmu)


def from_quotients(logmu, name: str = "from-quotients",
                   logM0: float = 0.0) -> WeightSequence:
    """Rebuild a sequence from its quotient view by cumulative summation."""
    logmu = np.asarray(logmu, dtype=float)
    logM = logM0 + np.concatenate([[0.0], np.cumsum(logmu[1:])])
    return WeightSequence(name, logM, provenance="from-quotients")


def little_m(M: WeightSequence) -> WeightSequence:
    """Divide out the factorial: logm[p] = logM[p] - ln p!."""
    logm = M.logM - log_factorial(np.arange(M.P + 1))
    form = M.generator.little_m() if isinstance(M.generator, ClosedForm) else None
    return WeightSequence(f"m[{M.name}]", logm, form,
                          provenance=f"transform:little_m({M.provenance})")


def factorial_shift(M: WeightSequence, s: float) -> WeightSequence:
    """Multiply by (p!)^s in log domain; s is anything float() accepts."""
    s = _number(s, "factorial shift")
    logM = M.logM + s * log_factorial(np.arange(M.P + 1))
    form = M.generator.shift(s) if isinstance(M.generator, ClosedForm) else None
    return WeightSequence(f"shift[{M.name},{s:g}]", logM, form,
                          provenance=f"transform:factorial_shift({M.provenance},{s:g})")


def root_sequence(M: WeightSequence) -> WeightSequence:
    """Sequence R with quotients rho_p = (M_p)^(1/p); R_0 = 1.

    logR[p] = sum_{i<=p} logM[i]/i.  No closed-form generator survives the
    partial summation, so the result is window-only.
    """
    p = np.arange(1, M.P + 1, dtype=float)
    logR = np.concatenate([[0.0], np.cumsum(M.logM[1:] / p)])
    return WeightSequence(f"root[{M.name}]", logR,
                          provenance=f"transform:root_sequence({M.provenance})")


# ---------------------------------------------------------------------------
# structural predicates used as preconditions (cheap, window-exact)
# ---------------------------------------------------------------------------

def is_log_convex(M: WeightSequence, tol: float = 1e-12) -> bool:
    """M_p^2 <= M_{p-1} M_{p+1} for all p in the window."""
    return quotients(M).is_nondecreasing(tol)


def is_normalized(M: WeightSequence, tol: float = 1e-12) -> bool:
    """1 = M_0 <= M_1."""
    return abs(M.logM[0]) <= tol and M.logM[1] >= -tol


def in_lc_window(M: WeightSequence, tol: float = 1e-12) -> bool:
    """Window proxy for membership in the normalized log-convex class with
    (M_p)^(1/p) -> infinity: normalized, log-convex, and quotients strictly
    exceeding 1 with an increasing trend by the end of the window."""
    if not (is_normalized(M, tol) and is_log_convex(M, tol)):
        return False
    logmu = quotients(M).logmu
    tail = logmu[-max(4, M.P // 4):]
    return bool(tail[-1] > math.log(1.5) and tail[-1] >= tail[0] - tol)


# ---------------------------------------------------------------------------
# JSON sequence files
# ---------------------------------------------------------------------------

def _family_block(M: WeightSequence):
    """The generator as stored: a Gevrey order, the closed-form coefficients
    at full float precision, or custom (window data only)."""
    form = M.generator
    if not isinstance(form, ClosedForm):
        return {"type": "custom", "params": {}}
    if form.b == 0 and form.a >= 0:
        return {"type": "gevrey", "params": {"alpha": form.a}}
    return {"type": "closed-form", "params": {"a": form.a, "b": form.b}}


def save_sequence(M: WeightSequence, path) -> None:
    doc = {
        "name": M.name,
        "P": M.P,
        "family": _family_block(M),
        "logM": [float(x) for x in M.logM],
        "provenance": M.provenance,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def load_sequence(path) -> WeightSequence:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidSequenceError(f"cannot read sequence file {path}: {exc}") from exc
    if not isinstance(doc, dict) or "name" not in doc:
        raise InvalidSequenceError(f"malformed sequence file {path}")
    fam = doc.get("family") or {"type": "custom"}
    if not isinstance(fam, dict):
        raise InvalidSequenceError(f"{path}: family block must be an object, got {fam!r}")
    kind = fam.get("type")
    form = None
    if kind in ("gevrey", "qgevrey"):
        form = make_family(fam, P=8).generator  # checks the parameter
    elif kind == "closed-form":
        form = ClosedForm(_family_param(fam, "a"), _family_param(fam, "b"))
    logM = doc.get("logM")
    if logM is None:
        if form is None:
            raise InvalidSequenceError(f"{path}: custom family requires logM data")
        logM = form(np.arange(int(doc.get("P", DEFAULT_P)) + 1))
    return WeightSequence(doc["name"], logM, form, doc.get("provenance", "file"))
