"""Growth and regularity predicates with honest finite-window semantics.

Every check returns a Verdict: holds / fails only together with a concrete
witness (a constant that works on the window plus a certificate that the
defining statistic cannot escape, or a violating index); otherwise the
verdict is inconclusive.  Asymptotic conditions are never claimed from raw
window data alone; certificates come from monotone trends of the defining
statistic (exact for the closed-form families), power-law tail fits with
margin, or exact structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidSequenceError, PreconditionError, WeightSeqError
from .seqcore import (SequenceFamily, WeightSequence, _float_array, _integer,
                      is_log_convex, is_normalized, little_m, quotients,
                      root_sequence, structure_tol)
from .transforms import _counting_range, dual
from .weights import _omega_grid, default_t_grid


@dataclass(frozen=True)
class Verdict:
    status: str                  # "holds" | "fails" | "inconclusive"
    witness: dict = field(default_factory=dict)
    window: tuple = (0, 0)
    notes: str = ""

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    @property
    def fails(self) -> bool:
        return self.status == "fails"

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class IndexEstimate:
    lo: float
    hi: float
    window: tuple
    method: str = "dyadic-ratio"
    unbounded_flag: bool = False
    side: str = "upper"

    @property
    def value(self) -> float:
        return self.hi if self.side == "upper" else self.lo

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# trend helpers
# ---------------------------------------------------------------------------

def _tail(x: np.ndarray) -> np.ndarray:
    """The last quarter of x, at least two entries."""
    return x[-max(2, len(x) // 4):]


def _nonincreasing(x: np.ndarray, tol: float = 1e-12) -> bool:
    return bool(np.all(np.diff(x) <= tol))


def _nondecreasing(x: np.ndarray, tol: float = 1e-12) -> bool:
    return bool(np.all(np.diff(x) >= -tol))


def _block_minima_nondecreasing(x: np.ndarray) -> bool:
    """Envelope trend for noisy statistics (integer-valued quotients carry
    floor jitter): minima over 6 consecutive blocks must not decrease by
    more than 1e-9."""
    mins = [float(b.min()) for b in np.array_split(x, 6) if b.size]
    return all(b >= a - 1e-9 for a, b in zip(mins, mins[1:]))


# ---------------------------------------------------------------------------
# individual property checks
# ---------------------------------------------------------------------------

def _check_lc(M):
    if is_log_convex(M):
        return Verdict("holds", {"min_step": M._min_logmu_step}, (1, M.P))
    d = np.diff(M.logM, 2)
    bad = int(np.flatnonzero(d < -structure_tol(M))[0])
    return Verdict("fails", {"p": bad + 1, "drop": float(d[bad])}, (1, M.P),
                   "quotient decreases")


def _check_normalized(M):
    ok = is_normalized(M)
    w = {"logM0": float(M.logM[0]), "logM1": float(M.logM[1])}
    return Verdict("holds" if ok else "fails", w, (0, 1))


def _check_log_concave_m(M):
    # |ln m_p| is bit for bit the |ln M*_p| that lc sees on the conjugate
    m = little_m(M)
    logm = m.logM
    d2 = logm[:-2] + logm[2:] - 2 * logm[1:-1]
    bad = np.flatnonzero(d2 > structure_tol(m))
    if bad.size:
        return Verdict("fails", {"p": int(bad[0] + 1), "excess": float(d2[bad[0]])},
                       (1, M.P - 1))
    return Verdict("holds", {"max_second_diff": float(d2.max())}, (1, M.P - 1))


def _log_window_constant(logM: np.ndarray, convex: bool = False) -> float:
    """ln C, the least C with M_{p+q} <= C^{p+q+1} M_p M_q on the window.

    low[s] is the smallest ln M_p + ln M_q over p + q = s, kept as a
    running minimum over the rows p <= s/2: O(P) memory, O(P^2) time.  The
    result equals max over all pairs of (ln M_s - ln M_p - ln M_q)/(s+1)
    bit for bit, because rounded subtraction and division are monotone.

    ``convex`` asserts that the stored values are exactly convex
    (WeightSequence._exactly_convex).  Then ln M_p + ln M_{s-p} is smallest
    at the balanced split p = floor(s/2), and rounded addition is monotone,
    so low[s] is read there in O(P) with the same bits.
    """
    P = logM.size - 1
    if convex:
        low = np.empty(P + 1)  # s = 2k from (k, k), s = 2k + 1 from (k, k + 1)
        low[0::2] = logM[: P // 2 + 1] + logM[: P // 2 + 1]
        low[1::2] = logM[: (P + 1) // 2] + logM[1 : (P + 1) // 2 + 1]
    else:
        low = logM[0] + logM
        for p in range(1, P // 2 + 1):
            np.minimum(low[2 * p:], logM[p] + logM[p : P - p + 1], out=low[2 * p:])
    return float(np.max((logM - low) / np.arange(1.0, P + 2)))


def _exp_reported(log_C: float) -> float:
    """e^log_C for a reported value (a witness's constant, a side of an
    extension bound): inf past float range, never clamped.  check_property
    lets no holds or fails rest on an inf witness."""
    with np.errstate(over="ignore"):
        return float(np.exp(log_C))


def _math_exp(x: float) -> float:
    """math.exp(x) inside float range (pinned witnesses read it), inf past it."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _check_mg(M):
    """Moderate growth: M_{p+q} <= C^{p+q+1} M_p M_q.

    Window constant from all pairs; certificate via the doubling statistic.
    For log-convex M the quotient-doubling statistic ln(mu_{2p}/mu_p) is
    bounded iff moderate growth holds, so a non-increasing tail certifies
    and a convexly growing tail refutes.
    """
    logM = M.logM
    tol9, tol12 = structure_tol(M, 1e-9), structure_tol(M)
    log_C = _log_window_constant(logM, M._exactly_convex)
    dia = np.arange(1, M.P // 2 + 1)
    d_p = (logM[2 * dia] - 2 * logM[dia]) / (2 * dia + 1.0)
    if is_log_convex(M):
        logmu = quotients(M)
        m_p = logmu[2 * dia] - logmu[dia]
        tail = _tail(m_p)
        if _nonincreasing(tail, tol9):
            return Verdict("holds", {"C": _exp_reported(log_C),
                                     "doubling_tail": float(tail[-1])},
                           (1, M.P), "quotient-doubling statistic stable")
        inc = np.diff(tail)
        if np.all(inc >= -tol12) and tail[-1] > tail[0] + 0.5 and \
                np.all(np.diff(inc) >= -tol9):
            p_wit = int(dia[-1])
            return Verdict("fails",
                           {"p": p_wit, "q": p_wit,
                            "excess_rate": float(d_p[-1]),
                            "doubling_growth": float(tail[-1] - tail[0])},
                           (1, M.P),
                           "pair statistic grows linearly along the diagonal")
    tail_d = _tail(d_p)
    if _nonincreasing(tail_d, tol9) or int(np.argmax(d_p)) <= len(d_p) // 2:
        return Verdict("holds", {"C": _exp_reported(log_C)}, (1, M.P),
                       "pair statistic stable")
    return Verdict("inconclusive", {"C_window": _exp_reported(log_C)}, (1, M.P),
                   "pair statistic still moving at window end")


def _check_dc(M):
    """Derivation closedness: mu_{p+1} <= A^{p+1}."""
    logmu = quotients(M)
    p = np.arange(1, M.P + 1, dtype=float)
    s = logmu[1:] / p
    A_w = _exp_reported(s.max())
    if int(np.argmax(s)) <= 3 * len(s) // 4 or _nonincreasing(_tail(s), 1e-12):
        return Verdict("holds", {"A": A_w}, (1, M.P))
    inc = np.diff(_tail(s))
    if np.all(inc >= -1e-12) and np.all(np.diff(inc) >= -1e-12) and inc[-1] > 1e-9:
        return Verdict("fails", {"p": M.P, "rate": float(s[-1])}, (1, M.P),
                       "statistic diverges convexly")
    return Verdict("inconclusive", {"A_window": A_w}, (1, M.P),
                   "statistic increasing with shrinking increments")


def _check_quotient_ratio_bound(M):
    """Successive quotient ratio: nu_{p+1} <= A nu_p."""
    logmu = quotients(M)
    steps = np.diff(logmu[1:])
    A_w = _exp_reported(steps.max())
    tol9, tol12 = structure_tol(M, 1e-9), structure_tol(M)
    if int(np.argmax(steps)) <= 3 * len(steps) // 4 or \
            _nonincreasing(_tail(steps), tol9):
        return Verdict("holds", {"A": A_w}, (1, M.P))
    inc = np.diff(_tail(steps))
    if np.all(inc >= -tol12) and inc[-1] > tol9:
        return Verdict("fails", {"p": M.P, "step": float(steps[-1])}, (1, M.P))
    return Verdict("inconclusive", {"A_window": A_w}, (1, M.P))


_QS = (2, 4, 8, 16)


def _liminf_ratio_verdict(M, threshold_of_Q, name):
    """liminf mu_{Qp}/mu_p > threshold(Q) for some Q in a small witness set.

    The ratio statistic is monotone for every builtin family, which turns a
    window tail minimum into a genuine liminf bound.
    """
    logmu = quotients(M)
    results = {}
    for Q in _QS:
        hi = M.P // Q
        if hi < 8:
            continue
        p = np.arange(1, hi + 1)
        r = logmu[Q * p] - logmu[p]
        tail = _tail(r)
        thr = threshold_of_Q(Q)
        if _nondecreasing(tail, 1e-9) and float(tail.min()) > thr + 1e-9:
            return Verdict("holds",
                           {"Q": Q, "liminf_lower_bound": float(tail.min()),
                            "threshold": thr}, (1, hi), name)
        if _nonincreasing(tail, 1e-9) and float(tail.max()) < thr - 1e-9:
            results[Q] = "below"
        elif (float(tail.max() - tail.min()) <= 2e-9
              and abs(float(tail.max()) - thr) <= 2e-9):
            # exactly-constant statistic equal to the threshold: the strict
            # inequality fails at the limit
            results[Q] = "below"
        else:
            results[Q] = "undecided"
    if results and all(v == "below" for v in results.values()):
        return Verdict("fails", {"tested_Q": list(results)}, (1, M.P // 2),
                       f"{name}: ratio certified below threshold for all tested Q")
    return Verdict("inconclusive", {"tested_Q": results}, (1, M.P // 2), name)


def _check_beta1(M):
    return _liminf_ratio_verdict(M, lambda Q: math.log(Q), "beta1")


def _check_beta3(M):
    return _liminf_ratio_verdict(M, lambda Q: 0.0, "beta3")


def _check_gamma1(M):
    """Strong non-quasianalyticity: sup_p (mu_p/p) sum_{k>=p} 1/mu_k < inf.

    The tail beyond the window is certified through a power-law fit of the
    quotients: mu_k >= c k^r with r > 1 bounds the missing mass by
    P^(1-r)/(c(r-1)); a fit with r <= 1 certifies divergence of the series.
    """
    if not is_log_convex(M):
        return Verdict("inconclusive", {}, (1, M.P), "needs log-convex input")
    logmu = quotients(M)
    P = M.P
    p = np.arange(1, P + 1, dtype=float)
    # dyadic growth rate of quotients on the tail
    half = np.arange(P // 4, P // 2 + 1)
    rates = (logmu[2 * half] - logmu[half]) / math.log(2)
    r_lo = float(rates.min())
    tail_id = np.arange(3 * P // 4, P + 1)
    if r_lo > 1.05:
        r_fit = r_lo
        c_log = float(np.min(logmu[tail_id] - r_fit * np.log(tail_id)))
        # sum_{k>P} 1/(c k^r) <= P^(1-r) / (c (r-1))
        log_tail = -c_log + (1 - r_fit) * math.log(P) - math.log(r_fit - 1)
        tail_bound = _math_exp(log_tail)
        # once mu_p or 1/mu_p passes float range this is inf, or inf * 0 =
        # NaN, and check_property withdraws the verdict
        with np.errstate(over="ignore", invalid="ignore"):
            suffix = np.cumsum(np.exp(-logmu[1:])[::-1])[::-1]
            stat = np.exp(logmu[1:] - np.log(p)) * (suffix + tail_bound)
        return Verdict("holds",
                       {"sup": float(stat.max()), "argmax_p": int(np.argmax(stat) + 1),
                        "tail_rate": r_fit, "tail_bound": tail_bound}, (1, P))
    r_hi = float(rates.max())
    if r_hi < 1.0 - 1e-9 or (abs(r_hi - 1.0) <= 1e-9 and _nonincreasing(rates, 1e-9)):
        # mu_k <= C k: the reciprocal series diverges, the sup is infinite
        C_log = float(np.max(logmu[tail_id] - np.log(tail_id)))
        return Verdict("fails", {"tail_rate_upper": r_hi, "C": _math_exp(C_log)},
                       (1, P), "reciprocal quotient series diverges")
    return Verdict("inconclusive", {"tail_rate_range": (r_lo, r_hi)}, (1, P))


def _check_momega1(M):
    """liminf (M_{Lj})^(1/Lj) / (M_j)^(1/j) > 1 for some L."""
    logM = M.logM
    results = {}
    for L in _QS:
        hi = M.P // L
        if hi < 8:
            continue
        jj = np.arange(1, hi + 1, dtype=float)
        diff = logM[(L * jj).astype(int)] / (L * jj) - logM[jj.astype(int)] / jj
        tail = _tail(diff)
        t_min, t_max = float(tail.min()), float(tail.max())
        trending_up = _nondecreasing(tail, 1e-9) or _block_minima_nondecreasing(tail)
        # plateau: residual wiggle is small against the distance to the
        # threshold, so a later dip below it would need a trend reversal
        plateau = (t_max - t_min) <= 0.25 * t_min
        # a statistic falling like 1/ln j (q-Gevrey duals) rises inside the
        # tail's step-constant stretches: its fall from one L-fold earlier,
        # over twice the window's L-folds, must stay below t_min (README)
        lo = (hi - len(tail)) // L
        fall = max(0.0, float(diff[lo:max(lo + 1, hi // L)].min()) - t_min)
        if (trending_up or plateau) and t_min > max(1e-9, 2 * math.log(hi, L) * fall):
            return Verdict("holds", {"L": L, "liminf_log_lower": t_min,
                                     "certificate": "trend" if trending_up
                                     else "plateau"}, (1, hi))
        results[L] = ("below" if _nonincreasing(tail, 1e-9) and t_max < -1e-9
                      else "undecided")
    if results and all(v == "below" for v in results.values()):
        return Verdict("fails", {"tested_L": list(results)}, (1, M.P // 2))
    return Verdict("inconclusive", {"tested_L": results}, (1, M.P // 2))


def _check_om1(M):
    """omega_M(2t) = O(omega_M(t)): for log-convex M this is equivalent to
    the root-ratio condition, whose monotone statistic certifies from the
    window; the sampled ratio sup is reported alongside."""
    base = _check_momega1(M)
    ratio_sup = None
    try:
        grid = default_t_grid(M, t_min=2.0)
        grid = grid[grid < grid[-1] / 2.0]
        w1, _, ok1 = _omega_grid(M, grid)
        w2, _, ok2 = _omega_grid(M, 2 * grid)
        keep = ok1 & ok2 & (w1 > 1e-9)
        if keep.any():
            ratio_sup = float((w2[keep] / w1[keep]).max())
    except WeightSeqError:
        pass
    if is_log_convex(M) and base.status != "inconclusive":
        w = dict(base.witness)
        if ratio_sup is not None:
            w["sampled_ratio_sup"] = ratio_sup
        return Verdict(base.status, w, base.window,
                       "via root-ratio equivalence for log-convex input")
    w = {"sampled_ratio_sup": ratio_sup} if ratio_sup is not None else {}
    return Verdict("inconclusive", w, (1, M.P))


_CHECKS = {
    "lc": _check_lc,
    "normalized": _check_normalized,
    "log-concave-m": _check_log_concave_m,
    "mg": _check_mg,
    "dc": _check_dc,
    "beta1": _check_beta1,
    "gamma1": _check_gamma1,
    "beta3": _check_beta3,
    "quotient-ratio-bound": _check_quotient_ratio_bound,
    "momega1": _check_momega1,
    "om1": _check_om1,
}

PROPERTY_NAMES = tuple(_CHECKS)


def _finite(value) -> bool:
    """No float inside value (nested dicts, lists and tuples included) is
    NaN or infinite."""
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    if isinstance(value, (float, np.floating)):
        return math.isfinite(value)
    return True


def check_property(M: WeightSequence, prop: str) -> Verdict:
    """Run one predicate.  A holds or fails is only as good as its witness:
    one that carries a non-finite float comes back inconclusive."""
    try:
        fn = _CHECKS[prop]
    except KeyError:
        raise InvalidSequenceError(
            f"unknown property {prop!r}; known: {', '.join(_CHECKS)}") from None
    v = fn(M)
    if v.status != "inconclusive" and not _finite(v.witness):
        notes = f"{v.status} withdrawn: non-finite witness"
        return Verdict("inconclusive", v.witness, v.window,
                       f"{notes}; {v.notes}" if v.notes else notes)
    return v


# ---------------------------------------------------------------------------
# relations between sequences
# ---------------------------------------------------------------------------

def relation(M: WeightSequence, N: WeightSequence, rel: str) -> Verdict:
    """Compare two sequences: le (pointwise), preceq (bounded root ratio),
    triangle (vanishing root ratio), approx (mutual preceq)."""
    P = min(M.P, N.P)
    if rel == "le":
        diff = M.logM[: P + 1] - N.logM[: P + 1]
        bad = np.flatnonzero(diff > 1e-12)
        if bad.size:
            return Verdict("fails", {"p": int(bad[0]), "excess": float(diff[bad[0]])},
                           (0, P))
        return Verdict("holds", {"max_log_diff": float(diff.max())}, (0, P))
    p = np.arange(1, P + 1, dtype=float)
    d = (M.logM[1 : P + 1] - N.logM[1 : P + 1]) / p
    sup = float(d.max())
    tail = _tail(d)
    if rel == "preceq":
        if int(np.argmax(d)) <= 3 * len(d) // 4 or _nonincreasing(tail, 1e-12):
            return Verdict("holds", {"sup_root_ratio_log": sup}, (1, P))
        if _nondecreasing(tail, 1e-12) and tail[-1] > max(0.0, tail[0]) + 1e-9 \
                and (M.generator is not None or N.generator is not None):
            return Verdict("fails", {"tail_value": float(tail[-1]),
                                     "trend": "increasing"}, (1, P))
        return Verdict("inconclusive", {"sup_window": sup}, (1, P))
    if rel == "triangle":
        if _nonincreasing(tail, 1e-12) and tail[-1] < -math.log(10.0):
            return Verdict("holds", {"tail_value": float(tail[-1]),
                                     "threshold": -math.log(10.0)}, (1, P))
        if _nondecreasing(tail, 1e-12) and tail[-1] > 1e-9:
            return Verdict("fails", {"tail_value": float(tail[-1])}, (1, P))
        return Verdict("inconclusive", {"tail_value": float(tail[-1])}, (1, P))
    if rel == "approx":
        fwd = relation(M, N, "preceq")
        bwd = relation(N, M, "preceq")
        if fwd.holds and bwd.holds:
            return Verdict("holds",
                           {"sup_fwd": fwd.witness["sup_root_ratio_log"],
                            "sup_bwd": bwd.witness["sup_root_ratio_log"]}, (1, P))
        if fwd.fails or bwd.fails:
            return Verdict("fails", {"fwd": fwd.status, "bwd": bwd.status}, (1, P))
        return Verdict("inconclusive", {"fwd": fwd.status, "bwd": bwd.status}, (1, P))
    raise InvalidSequenceError(f"unknown relation {rel!r}")


# ---------------------------------------------------------------------------
# Matuszewska indices
# ---------------------------------------------------------------------------

def matuszewska(a, side: str = "upper", p0: int = 8) -> IndexEstimate:
    """Dyadic-ratio estimate of the power-growth indices of a positive
    sequence given by its logs (for instance ``quotients(M)``):
    r_p = (ln a_{2p} - ln a_p)/ln 2 over [p0, P/2], p0 an integer >= 1;
    exact for pure powers a_p = p^s.

    The unbounded flag is set when the upper statistic keeps growing as the
    window doubles.
    """
    loga = _float_array(a, "matuszewska input")
    if loga.ndim != 1:
        raise InvalidSequenceError("matuszewska: input must be one-dimensional")
    p0 = _integer(p0, "matuszewska: p0", 1)
    n = loga.size - 1
    hi = n // 2
    if hi <= p0:
        raise InvalidSequenceError(
            f"matuszewska window too small: need P/2 > p0={p0}, have P={n}")
    p = np.arange(p0, hi + 1)
    r = (loga[2 * p] - loga[p]) / math.log(2)
    half = r[: max(2, len(r) // 2)]
    unbounded = bool(r.max() > half.max() + 0.5)
    return IndexEstimate(lo=float(r.min()), hi=float(r.max()),
                         window=(p0, hi), unbounded_flag=unbounded,
                         side=side)


# ---------------------------------------------------------------------------
# derived reports
# ---------------------------------------------------------------------------

def mixed_om1_check(family: SequenceFamily, param_pairs: Sequence,
                    P: Optional[int] = None) -> Verdict:
    """Sufficient mixed scaling condition for ordered parameter pairs:
    existence of C with 2^j N1_j <= C N2_j on the window (log domain),
    which transfers to omega_{N2}(2t) <= omega_{N1}(t) + ln C."""
    per_pair = {}
    overall = "holds"
    for b1, b2 in param_pairs:
        if b1 > b2:
            raise InvalidSequenceError("mixed check needs ordered pairs b1 <= b2")
        N1 = family.member(b1, P)
        N2 = family.member(b2, P)
        PP = min(N1.P, N2.P)
        jj = np.arange(PP + 1, dtype=float)
        s = jj * math.log(2) + N1.logM[: PP + 1] - N2.logM[: PP + 1]
        tail = _tail(s)
        key = f"({b1:g},{b2:g})"
        if _nonincreasing(tail, 1e-12) and tail[-1] < 0:
            per_pair[key] = {"status": "holds", "log_C": float(s.max())}
        elif _nondecreasing(tail, 1e-12) and tail[-1] > max(0.0, float(tail[0])):
            per_pair[key] = {"status": "fails", "witness_j": int(PP)}
            overall = "fails"
        else:
            per_pair[key] = {"status": "inconclusive"}
            if overall == "holds":
                overall = "inconclusive"
    return Verdict(overall, {"pairs": per_pair}, (0, P or family.P))


@dataclass(frozen=True)
class ReciprocityReport:
    alpha_nu: IndexEstimate
    beta_nu: IndexEstimate
    alpha_delta: IndexEstimate
    beta_delta: IndexEstimate
    residual_upper: float   # |alpha(nu) * beta(delta) - 1|
    residual_lower: float   # |beta(nu) * alpha(delta) - 1|


def index_reciprocity_report(N: WeightSequence) -> ReciprocityReport:
    """Reciprocity of growth indices between a sequence and its dual.

    The dual window has P_dual = min(100 P, 10^6, nu_P) entries.  The dual
    quotients are integer counts, so their dyadic ratios carry floor noise
    of relative size ~1/delta_p; the estimation window for the dual side
    therefore starts at p0 = P_dual/10.
    """
    qrb = check_property(N, "quotient-ratio-bound")
    if not qrb.holds:
        raise PreconditionError(
            f"index reciprocity needs the quotient-ratio bound; got {qrb.status}")
    nu = quotients(N)
    a_nu = matuszewska(nu, "upper")
    b_nu = matuszewska(nu, "lower")
    P_dual = min(100 * N.P, 10**6, _counting_range(N))
    D = dual(N, P_out=P_dual)
    delta = quotients(D)
    p0_dual = max(8, P_dual // 10)
    a_d = matuszewska(delta, "upper", p0=p0_dual)
    b_d = matuszewska(delta, "lower", p0=p0_dual)
    return ReciprocityReport(
        alpha_nu=a_nu, beta_nu=b_nu, alpha_delta=a_d, beta_delta=b_d,
        residual_upper=abs(a_nu.hi * b_d.lo - 1.0),
        residual_lower=abs(b_nu.lo * a_d.hi - 1.0))


# beta(rho) may fall this far below beta(mu) and still count as ordered
ROOT_QUOTIENT_SLACK = 0.05


@dataclass(frozen=True)
class RootQuotientReport:
    beta_rho: IndexEstimate
    beta_mu: IndexEstimate
    ordered: bool           # beta(rho) >= beta(mu) - ROOT_QUOTIENT_SLACK


def root_vs_quotient_lower_index(M: WeightSequence) -> RootQuotientReport:
    """Lower index of the root sequence dominates the quotient lower index.

    The root statistic ln rho_p = ln M_p / p converges to its power law
    only logarithmically, so the dyadic window starts at P/4.
    """
    if not is_log_convex(M):
        raise PreconditionError("root/quotient comparison needs log-convex M")
    R = root_sequence(M)
    p0 = max(32, M.P // 4)
    b_rho = matuszewska(quotients(R), "lower", p0=p0)
    b_mu = matuszewska(quotients(M), "lower", p0=p0)
    return RootQuotientReport(
        beta_rho=b_rho, beta_mu=b_mu,
        ordered=bool(b_rho.lo >= b_mu.lo - ROOT_QUOTIENT_SLACK))
