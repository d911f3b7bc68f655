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

import functools
import json
import math
import numbers
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import gammaln

from .errors import InvalidSequenceError

DEFAULT_P = 512
# ceiling for any materialised window (entries, not values): a family's or
# an extension's P, an explicit dual P_out, bidual's inner dual
DUAL_CEILING = 50_000_000

# generator must reproduce stored logM to this relative slack
GENERATOR_MATCH_RTOL = 1e-12
# absolute floor of the structural predicates on ln M_p and ln mu_p; see
# structure_tol for the floor that steps of ln mu_p are tested against
STRUCTURE_TOL = 1e-12


def log_factorial(p):
    """ln p! via log-gamma; accepts scalars or arrays, works far beyond the window."""
    return gammaln(np.asarray(p, dtype=float) + 1.0)


# ln 0!..ln n! for the longest window a factorial transform has asked for;
# replaced by a longer array, never shrunk and never written in place
_LOG_FACTORIALS = np.empty(0)
_LOG_FACTORIALS.flags.writeable = False
_LOG_FACTORIALS_GROW = threading.Lock()


def log_factorials(P) -> np.ndarray:
    """Read-only view of ln 0!..ln P!, bit for bit log_factorial(np.arange(P + 1)).

    One table is shared by the whole process: the values depend on k alone,
    and the window transforms read them at every call.  A longer P computes
    only the missing tail (gammaln works entry by entry, so the bits do not
    depend on how the table grew) and swaps in the longer array; views
    handed out earlier keep the old one alive.
    """
    global _LOG_FACTORIALS
    P = _window_length(P, "log_factorials: window length P")
    if P >= _LOG_FACTORIALS.size:
        with _LOG_FACTORIALS_GROW:
            old = _LOG_FACTORIALS
            if P >= old.size:
                table = np.empty(P + 1)
                table[: old.size] = old
                table[old.size:] = log_factorial(np.arange(old.size, P + 1))
                table.flags.writeable = False
                _LOG_FACTORIALS = table
    return _LOG_FACTORIALS[: P + 1]


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

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise InvalidSequenceError(f"non-finite closed form {self}")

    def __call__(self, p):
        """ln M_p in float for a scalar or an array of indices."""
        p = np.asarray(p, dtype=float)
        with np.errstate(over="ignore"):  # an overflow is left as inf
            out = self.a * log_factorial(p) if self.a else np.zeros_like(p)
            return out + self.b * (p * p) if self.b else out

    @functools.cached_property
    def _ab_mp(self):
        """(a, b) as mpf, built at 53 bits so that both are the floats exactly."""
        import mpmath as mp
        with mp.workprec(53):
            return mp.mpf(self.a), mp.mpf(self.b)

    def log_M_mp(self, p):
        """ln M_p in mpmath, for indices far beyond float resolution."""
        import mpmath as mp
        a, b = self._ab_mp
        out = a * mp.loggamma(p + 1) if self.a else mp.mpf(0)
        return out + b * p * p if self.b else out

    def log_mu_mp(self, p):
        """ln mu_p in mpmath (p >= 1)."""
        import mpmath as mp
        a, b = self._ab_mp
        out = a * mp.log(p) if self.a else mp.mpf(0)
        return out + b * (2 * p - 1) if self.b else out

    def inverse_mu_mp(self, log_t):
        """Largest p with ln mu_p <= log_t, in mpmath, or None.

        floor(exp(log_t / a)) when b = 0 < a, floor((log_t / b + 1) / 2)
        when a = 0 < b, and for a != 0 < b the root of a ln p + b (2p - 1) =
        log_t, p = (a / 2b) W((2b / a) e^((log_t + b) / a)), with Lambert's
        W on its principal branch for a > 0 and on k = -1 (the root past the
        minimum at p = -a / 2b) for a < 0; 0 where W has no real value.
        None when b < 0 or b = 0 >= a: the quotients do not tend to infinity.
        Callers check with log_mu_mp: p +- 1 round to p past the working
        precision, and for a < 0 no integer may lie between the roots.
        """
        import mpmath as mp
        a, b = self._ab_mp
        if self.b == 0 and self.a > 0:
            return mp.floor(mp.exp(log_t / a))
        if self.a == 0 and self.b > 0:
            return mp.floor((log_t / b + 1) / 2)
        if not self.b > 0:
            return None
        z = 2 * b / a * mp.exp((log_t + b) / a)
        if z < -1 / mp.e:
            return mp.mpf(0)
        return mp.floor(a / (2 * b) * mp.lambertw(z, 0 if a > 0 else -1).real)


@dataclass(frozen=True)
class LogPowerBound:
    """ln a_j = -j ln ln j for j >= 2 and ln a_0 = ln a_1 = 0.

    ``rate(u)`` is (1/k) ln a_k at u = ln k, which is -ln u, and
    ``deriv(u)`` is its derivative -1/u; the growth gauge reads both to
    evaluate at astronomically large arguments.
    """

    def __call__(self, p):
        """ln a_j in float for a scalar or an array of indices."""
        p = np.asarray(p, dtype=float)
        return np.where(p >= 2, -p * np.log(np.log(np.maximum(p, 2.0))), 0.0)

    def rate(self, u: float) -> float:
        return -math.log(u)

    def deriv(self, u: float) -> float:
        return -1.0 / u


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
        arr = _float_array(self.logM, f"logM of {self.name}")
        if arr.size < 9:
            raise InvalidSequenceError("truncation too short: need P >= 8")
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise InvalidSequenceError(f"non-finite logM entry at p={bad}")
        if arr.flags.writeable or not arr.flags.owndata:
            # a caller could write it, or the array it views: keep a copy
            arr = _frozen(arr.copy())
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

    # Scalars of the read-only window, each computed on first use.  A
    # sequence holds no array of its length besides the window: a cached
    # P+1 quotient view lives as long as its sequence, and kept on bidual's
    # 4e6-entry inner dual it raised the verify battery's peak memory by 12%.
    # The two scans of differences hold one block at a time (at most 1 MiB).

    @functools.cached_property
    def _min_logmu_step(self) -> float:
        """Smallest step ln mu_{p+1} - ln mu_p of the rounded quotients over
        p = 1..P-1; the window is exactly sorted when it is >= 0."""
        return _diff_extreme(self.logM, 2, np.minimum)

    @functools.cached_property
    def _exactly_convex(self) -> bool:
        """ln M_{p-1} + ln M_{p+1} >= 2 ln M_p in exact arithmetic on the
        stored floats, p = 1..P-1.

        With s = fl(a + c) rounding is monotone, so s > 2b proves a + c > 2b
        and s < 2b refutes it; a tie s = 2b is settled by the sign of the
        exact error a + c - s, which TwoSum recovers.  A sum or a 2b past
        float range settles nothing and reads False.
        """
        a, b, c = self.logM[:-2], self.logM[1:-1], self.logM[2:]
        with np.errstate(over="ignore", invalid="ignore"):
            s, twice = a + c, 2.0 * b
            if not (np.isfinite(s).all() and np.isfinite(twice).all()):
                return False
            bb = s - a
            err = (a - (s - bb)) + (c - bb)
        return bool(np.all((s > twice) | ((s == twice) & (err >= 0.0))))

    @functools.cached_property
    def _max_logmu(self) -> float:
        """Largest windowed ln mu_p, p = 1..P."""
        return _diff_extreme(self.logM, 1, np.maximum)

    @functools.cached_property
    def _max_abs_logM(self) -> float:
        """Largest |ln M_p| over the window."""
        return max(float(self.logM.max()), -float(self.logM.min()))

    def extended(self, P_new: int) -> "WeightSequence":
        """Re-materialise on a longer window; requires a generator."""
        P_new = _window_length(P_new, f"{self.name}: window length P_new")
        if P_new <= self.P:
            return self
        if self.generator is None:
            raise InvalidSequenceError(
                f"{self.name}: cannot extend window to P={P_new} without a generator"
            )
        gen = np.asarray(self.generator(np.arange(P_new + 1)), dtype=float)
        # keep the stored head bit-exact, in a new array: the generator may
        # hand out an array it keeps
        logM = np.concatenate([self.logM, gen[self.P + 1:]])
        return WeightSequence(self.name, _frozen(logM), self.generator,
                              self.provenance)

    def __repr__(self):
        return f"WeightSequence({self.name!r}, P={self.P})"


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
        return self.maker(float(beta), _integer(P if P is not None else self.P,
                                                f"{self.name}: window length P", 0))


# ---------------------------------------------------------------------------
# builtin families
# ---------------------------------------------------------------------------

def gevrey(alpha: float, P: int = DEFAULT_P) -> WeightSequence:
    """Gevrey sequence of order alpha: M_p = (p!)^alpha, alpha >= 0."""
    if not (alpha >= 0) or not math.isfinite(alpha):
        raise InvalidSequenceError(f"gevrey order must be >= 0, got {alpha}")
    P = _window_length(P, "gevrey: window length P")
    form = ClosedForm(float(alpha))  # mu_p = p^alpha
    return WeightSequence(f"gevrey({alpha:g})", _frozen(form(np.arange(P + 1))),
                          form, provenance=f"builtin:gevrey({alpha:g})")


def qgevrey(q: float, P: int = DEFAULT_P) -> WeightSequence:
    """q-Gevrey sequence M_p = q^(p^2), q > 1."""
    if not (q > 1) or not math.isfinite(q):
        raise InvalidSequenceError(f"q-gevrey base must be > 1, got {q}")
    P = _window_length(P, "qgevrey: window length P")
    form = ClosedForm(0.0, math.log(q))  # mu_p = q^(2p-1)
    return WeightSequence(f"qgevrey({q:g})", _frozen(form(np.arange(P + 1))),
                          form, provenance=f"builtin:qgevrey({q:g})")


def custom(logM, name: str = "custom") -> WeightSequence:
    """Wrap an explicit array of ln M_p values."""
    return WeightSequence(name, logM, provenance="custom")


def small_gevrey_family(P: int = DEFAULT_P,
                        name: str = "small-gevrey") -> SequenceFamily:
    """Family beta -> gevrey(beta) for small Gevrey orders beta in [0, 1)."""

    def maker(beta, PP):
        if not (0 <= beta < 1):
            raise InvalidSequenceError(
                f"small-Gevrey order must lie in [0, 1), got {beta}")
        return gevrey(beta, PP)

    return SequenceFamily(name, maker, P)


def _number(value, what: str) -> float:
    """float(value), or InvalidSequenceError naming the malformed input."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise InvalidSequenceError(f"{what} must be a number, got {value!r}") from None


def _integer(value, what: str, lo: int) -> int:
    """int(value) for an integer value >= lo, or InvalidSequenceError naming
    the input; a float is refused, never rounded or truncated."""
    if not (isinstance(value, numbers.Integral) and value >= lo):
        raise InvalidSequenceError(f"{what} must be an integer >= {lo}, got {value!r}")
    return int(value)


def _window_length(value, what: str, lo: int = 0) -> int:
    """_integer(value, what, lo) for a window length P up to DUAL_CEILING; a
    longer one is refused before anything is allocated."""
    P = _integer(value, what, lo)
    if P > DUAL_CEILING:
        raise InvalidSequenceError(f"{what} = {P} exceeds DUAL_CEILING = "
                                   f"{DUAL_CEILING}")
    return P


def _frozen(arr: np.ndarray) -> np.ndarray:
    """arr, made read-only.  A builder freezes the fresh array it hands to
    WeightSequence, which then keeps that array instead of a copy."""
    arr.flags.writeable = False
    return arr


# differences one block of _diff_extreme forms at a time (512 KiB of floats)
_SCAN_BLOCK = 1 << 16


def _diff_extreme(x: np.ndarray, order: int, pick) -> float:
    """pick.reduce(np.diff(x, order)) for pick np.minimum or np.maximum,
    scanned in blocks of _SCAN_BLOCK differences.

    Each block forms its differences from x[lo:lo + _SCAN_BLOCK + order] by
    np.diff's own subtractions, and an extreme of floats is exact (a NaN
    carries through pick), so the value is the whole-window form's; no
    temporary is longer than a block.
    """
    return float(functools.reduce(pick, [
        pick.reduce(np.diff(x[lo:lo + _SCAN_BLOCK + order], order))
        for lo in range(0, x.size - order, _SCAN_BLOCK)]))


def _float_array(values, what: str) -> np.ndarray:
    """np.asarray(values, dtype=float) of a one-dimensional input, or
    InvalidSequenceError naming the input."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise InvalidSequenceError(f"{what} must hold numbers only") from None
    if arr.ndim != 1:
        raise InvalidSequenceError(f"{what} must be one-dimensional")
    return arr


def _family_param(fam: dict, key: str) -> float:
    """A numeric parameter of a JSON family block; a missing one reads as None."""
    params = fam.get("params")
    return _number(params.get(key) if isinstance(params, dict) else None,
                   f"parameter {key!r} of family block {fam!r}")


def make_family(spec, P: Optional[int] = None) -> WeightSequence:
    """Build a sequence from an inline descriptor: "gevrey:0.5", "qgevrey:2"
    or "file:path.json"."""
    PP = DEFAULT_P if P is None else _integer(P, "make_family: window length P", 0)
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
        return seq if P is None else seq.extended(PP)
    raise InvalidSequenceError(f"unknown sequence family {kind!r}")


# ---------------------------------------------------------------------------
# elementary operations
# ---------------------------------------------------------------------------

def quotients(M: WeightSequence) -> np.ndarray:
    """Log quotients: logmu[0] = 0 (mu_0 := 1), logmu[p] = logM[p] - logM[p-1]."""
    logmu = np.empty(M.P + 1)
    logmu[0] = 0.0
    logmu[1:] = np.diff(M.logM)
    return logmu


def from_quotients(logmu, name: str = "from-quotients",
                   provenance: str = "from-quotients") -> WeightSequence:
    """Rebuild a sequence with M_0 = 1 from its quotients by cumulative summation."""
    logmu = _float_array(logmu, "from_quotients: quotients")
    logM = np.concatenate([[0.0], np.cumsum(logmu[1:])])
    return WeightSequence(name, _frozen(logM), provenance=provenance)


def _factorial_image(M: WeightSequence, s: float, sign: float, name: str,
                     provenance: str) -> WeightSequence:
    """s ln p! + sign ln M_p (sign = +-1), a ClosedForm (a, b) mapped to
    (s + sign a, sign b) and any other generator dropped.  Multiplying by
    +-1.0 is exact and x - y is x + (-y): each caller keeps its bits."""
    with np.errstate(over="ignore"):  # an overflow is left as inf
        logM = s * log_factorials(M.P) + sign * M.logM
    form = M.generator
    form = (ClosedForm(s + sign * form.a, sign * form.b)
            if isinstance(form, ClosedForm) else None)
    return WeightSequence(name, _frozen(logM), form, provenance=provenance)


def little_m(M: WeightSequence) -> WeightSequence:
    """Divide out the factorial: logm[p] = logM[p] - ln p!."""
    return _factorial_image(M, -1.0, 1.0, f"m[{M.name}]",
                            f"transform:little_m({M.provenance})")


def factorial_shift(M: WeightSequence, s: float) -> WeightSequence:
    """Multiply by (p!)^s in log domain; s is anything float() accepts."""
    s = _number(s, "factorial shift")
    if not math.isfinite(s):
        raise InvalidSequenceError(f"factorial shift must be finite, got {s}")
    return _factorial_image(M, s, 1.0, f"shift[{M.name},{s:g}]",
                            f"transform:factorial_shift({M.provenance},{s:g})")


def root_sequence(M: WeightSequence) -> WeightSequence:
    """Sequence R with quotients rho_p = (M_p)^(1/p); R_0 = 1.

    logR[p] = sum_{i<=p} logM[i]/i.  No closed-form generator survives the
    partial summation, so the result is window-only.
    """
    p = np.arange(1, M.P + 1, dtype=float)
    logR = np.concatenate([[0.0], np.cumsum(M.logM[1:] / p)])
    return WeightSequence(f"root[{M.name}]", _frozen(logR),
                          provenance=f"transform:root_sequence({M.provenance})")


# ---------------------------------------------------------------------------
# structural predicates used as preconditions (cheap, window-exact)
# ---------------------------------------------------------------------------

def structure_tol(M: WeightSequence, floor: float = STRUCTURE_TOL) -> float:
    """floor, raised to 8 ulp of the window's largest |ln M_p|.

    Quotients are differences of ln M_p, so a step of ln mu_p carries the
    rounding of ln M_p: about 3e6 for q-Gevrey windows at P = 2048, 4e4 for
    the dual of gevrey(2) at P = 10^4.  Every sign test on steps of ln mu_p
    uses this one floor; a step below it is not resolved.
    """
    return max(floor, 8.0 * np.finfo(float).eps * M._max_abs_logM)


def is_log_convex(M: WeightSequence) -> bool:
    """M_p^2 <= M_{p-1} M_{p+1} for all p in the window, up to structure_tol."""
    return M._min_logmu_step >= -structure_tol(M)


def is_normalized(M: WeightSequence) -> bool:
    """1 = M_0 <= M_1 (ln M_0 and ln M_1 are near 0: the plain floor)."""
    return abs(M.logM[0]) <= STRUCTURE_TOL and M.logM[1] >= -STRUCTURE_TOL


def in_lc_window(M: WeightSequence) -> bool:
    """Window proxy for membership in the normalized log-convex class with
    (M_p)^(1/p) -> infinity: normalized, log-convex, and quotients strictly
    exceeding 1 with an increasing trend by the end of the window."""
    if not (is_normalized(M) and is_log_convex(M)):
        return False
    tail = np.diff(M.logM[-max(4, M.P // 4) - 1:])  # the last log quotients
    return bool(tail[-1] > math.log(1.5) and tail[-1] >= tail[0] - structure_tol(M))


# ---------------------------------------------------------------------------
# JSON sequence files
# ---------------------------------------------------------------------------

def _family_block(M: WeightSequence):
    """The generator as stored: a Gevrey order, the closed-form coefficients
    at full float precision, the log-power bound, or custom (window data
    only)."""
    form = M.generator
    if isinstance(form, LogPowerBound):
        return {"type": "log-power", "params": {}}
    if not isinstance(form, ClosedForm):
        return {"type": "custom", "params": {}}
    if form.b == 0 and form.a >= 0:
        return {"type": "gevrey", "params": {"alpha": form.a}}
    return {"type": "closed-form", "params": {"a": form.a, "b": form.b}}


def save_sequence(M: WeightSequence, path) -> None:
    """Write M as the bytes json.dump(doc, indent=1) gives, in one write
    (json formats a finite float with its repr)."""
    head = json.dumps({"name": M.name, "P": M.P, "family": _family_block(M)},
                      indent=1)
    logM = ",\n  ".join(map(repr, M.logM.tolist()))
    text = (f'{head[:-2]},\n "logM": [\n  {logM}\n ],\n'
            f' "provenance": {json.dumps(M.provenance)}\n}}')
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidSequenceError(f"cannot write sequence file {path}: {exc}") from exc


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
    if kind == "gevrey":
        form = gevrey(_family_param(fam, "alpha"), 8).generator
    elif kind == "qgevrey":
        form = qgevrey(_family_param(fam, "q"), 8).generator
    elif kind == "closed-form":
        form = ClosedForm(_family_param(fam, "a"), _family_param(fam, "b"))
    elif kind == "log-power":
        form = LogPowerBound()
    elif kind != "custom":
        raise InvalidSequenceError(f"{path}: unknown family type {kind!r}")
    logM = doc.get("logM")
    if logM is None:
        if form is None:
            raise InvalidSequenceError(f"{path}: custom family requires logM data")
        P = _integer(doc.get("P", DEFAULT_P), f"{path}: P", 0)
        logM = form(np.arange(P + 1))
    return WeightSequence(doc["name"], logM, form, doc.get("provenance", "file"))
