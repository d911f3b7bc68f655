"""Associated weight functions, counting functions, and growth gauges.

omega_M(t) = sup_p log(t^p / M_p) is the radial growth gauge of the entire
function class matching M.  For log-convex normalized M it vanishes on
[0, mu_1], equals p ln t - ln M_p on [mu_p, mu_{p+1}), and integrates the
counting function: omega_M(t) = int_{mu_1}^t Sigma_M(u)/u du with
Sigma_M(t) = #{p >= 1 : mu_p <= t}.

The growth gauge g built from a bound sequence a with a_k^(1/k) -> 0:

    h(t) = log sum_k (t/2)^k / (a_k k!),  f(t) = h(t/2)/t,  g = sqrt(f)

g tends to infinity (arbitrarily slowly), yet s*omega_N(t/2) - d*g(t)*t
still diverges for every sequence N whose little-m is dominated by a.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (CensoredWindowError, InvalidSequenceError,
                     PreconditionError, UntrustedEvaluationError)
from .seqcore import (ClosedForm, LogPowerBound, WeightSequence,
                      SequenceFamily, _integer, _number, _window_length,
                      is_log_convex, little_m, log_factorial, quotients)

LN2 = math.log(2.0)
_EPS = float(np.finfo(float).eps)

# h-series evaluation: direct summation while the peak index stays below this
DIRECT_KMAX = 2_000_000
# relative mass cutoff for series truncation past the peak
SERIES_RELATIVE_CUTOFF = 1e-16
# steps of the argument down by one unit of precision before giving up
OMEGA_MP_STEP_DOWNS = 4
# digits omega_mp keeps after its cancellation: a float's 15 plus a guard
OMEGA_MP_DIGITS = 18


def _require_finite(fn: str, t: float, name: str = "t") -> None:
    if not math.isfinite(t):
        raise InvalidSequenceError(f"{fn}: {name} must be finite, got {t}")


# ---------------------------------------------------------------------------
# one-dimensional searches; fixed step counts, which fix the report bytes
# ---------------------------------------------------------------------------

def _ternary_max(f, lo, hi, steps: int):
    """Argmax of a unimodal f on [lo, hi]: midpoint after ``steps`` cuts.

    A cut that leaves its end where it was is a fixed point (every later
    step would repeat it), so the loop stops there with the same result.
    """
    for _ in range(steps):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if f(m1) < f(m2):
            if m1 == lo:
                break
            lo = m1
        else:
            if m2 == hi:
                break
            hi = m2
    return 0.5 * (lo + hi)


def _bracket_bisect(holds, lo, hi, cap, steps: int):
    """(lo, hi) around where a monotone predicate stops holding, or None.

    hi doubles while ``holds(hi)`` (None once it passes ``cap``), then
    ``steps`` halvings keep holds(lo) true and holds(hi) false; a midpoint
    equal to the end it replaces is a fixed point and ends the halving.
    """
    while holds(hi):
        lo = hi
        hi *= 2
        if hi > cap:
            return None
    for _ in range(steps):
        mid = (lo + hi) / 2
        if holds(mid):
            if mid == lo:
                break
            lo = mid
        else:
            if mid == hi:
                break
            hi = mid
    return lo, hi


# ---------------------------------------------------------------------------
# counting function
# ---------------------------------------------------------------------------

def counting(M: WeightSequence, t: float) -> int:
    """Sigma_M(t) = #{p >= 1 : mu_p <= t}; exact, censorship-checked."""
    _require_finite("counting", t)
    if t < 0:
        raise InvalidSequenceError("counting: t must be >= 0")
    logt = math.log(t) if t > 0 else -math.inf
    return _window_count(M, logt)


def _window_count(M: WeightSequence, logt: float) -> int:
    """#{p >= 1 : ln mu_p <= ln t} over the window, for any window.

    Censored from the largest windowed quotient on: log-convexity allows
    mu_{P+1} = mu_P, so a tie with it may hide uncounted terms.  An exactly
    sorted window is counted by bisection, any other by a scan.
    """
    if logt >= M._max_logmu:
        raise CensoredWindowError(
            f"counting: t={math.exp(logt):g} reaches the largest windowed "
            f"quotient of {M.name}", required_P=M.P + 1)
    if M._min_logmu_step >= 0.0:
        return _sorted_count(M.logM, logt)
    return int(np.count_nonzero(np.diff(M.logM) <= logt))


def _sorted_count(logM: np.ndarray, logt: float) -> int:
    """#{p >= 1 : ln mu_p <= ln t} on an exactly sorted window, in O(log P).

    Each probe forms ln mu_p by the subtraction np.diff makes, so the count
    equals the scan's.
    """
    return bisect.bisect_right(range(1, logM.size), logt,
                               key=lambda p: logM[p] - logM[p - 1])


# ---------------------------------------------------------------------------
# associated weight function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OmegaValue:
    value: float
    argmax: int
    trusted: bool


def omega(M: WeightSequence, t: float) -> OmegaValue:
    """omega_M(t) on the stored window, clamped at >= 0 (p = 0 term).

    trusted is False when the supremum is attained at the truncation
    boundary, i.e. the window may be censoring the true value.  On an
    exactly sorted window the result is read at p = Sigma_M(t) in O(log P)
    unless a quotient lies near t (``_sorted_omega``); the scan answers
    otherwise, with the same result.
    """
    _require_finite("omega", t)
    if t < 0:
        raise InvalidSequenceError("omega: t must be >= 0")
    if t > 0 and M._min_logmu_step >= 0.0:
        res = _sorted_omega(M, math.log(t))
        if res is not None:
            return res
    return _window_omega(M.logM, t)


def _sorted_omega(M: WeightSequence, logt: float) -> Optional[OmegaValue]:
    """The scan's (value, argmax, trusted), read at k = Sigma_M(t) on an
    exactly sorted window; None when ln mu_k or ln mu_{k+1} lies within eta
    of ln t.

    With u = 2^-53, B = P |ln t| + max |ln M_p| and eta = 8uB: a scanned
    term T_p = fl(fl(p ln t) - ln M_p) is within 2.01uB of its exact value,
    and an exact quotient within 2uB of its rounded one.  The rounded
    quotients are sorted, and those on each side of k are more than eta
    from ln t, so every exact step towards k raises the term by more than
    eta - 2uB > 4.02uB, which no pair of rounded terms can undo: T_k is the
    strict, unique maximum.  The scan's argmax is then k (0 when T_k <= 0),
    and its last index within the tie tolerance is P only if T_P is.
    """
    logM, P = M.logM, M.P
    k = _sorted_count(logM, logt)
    eta = _omega_eta(M, logt)
    if k > 0 and not logt - (logM[k] - logM[k - 1]) > eta:
        return None
    if k < P and not (logM[k + 1] - logM[k]) - logt > eta:
        return None
    best = float(k * logt - logM[k])
    tol = 1e-12 * max(1.0, abs(best))
    trusted = bool(P * logt - logM[P] < best - tol)
    return OmegaValue(max(best, 0.0), k if best > 0.0 else 0, trusted)


def _omega_eta(M: WeightSequence, logt):
    """_sorted_omega's eta = 8uB, B = P |ln t| + max |ln M_p|, for a float
    ln t or an array of them."""
    return 4.0 * _EPS * (M.P * abs(logt) + M._max_abs_logM)


def _omega_grid(M: WeightSequence, ts) -> tuple:
    """(value, argmax, trusted) arrays equal to omega(M, t) for each t > 0
    of ts.

    On an exactly sorted window every t is read at k = Sigma_M(t) in one
    vectorized pass under _sorted_omega's certificate, with ln t from
    math.log as the scalar path takes it (numpy's log may differ in the
    last bit).  Each t the certificate does not clear, and every t on any
    other window, is answered by omega.
    """
    ts = np.asarray(ts, dtype=float)
    value = np.empty(ts.size)
    argmax = np.zeros(ts.size, dtype=int)
    trusted = np.zeros(ts.size, dtype=bool)
    todo = range(ts.size)
    if M._min_logmu_step >= 0.0:
        logM, P = M.logM, M.P
        logt = np.array([math.log(t) for t in ts])
        logmu = np.diff(logM)  # the subtraction _sorted_count probes
        k = np.searchsorted(logmu, logt, side="right")
        eta = _omega_eta(M, logt)
        clear = (((k == 0) | (logt - logmu[np.maximum(k - 1, 0)] > eta))
                 & ((k == P) | (logmu[np.minimum(k, P - 1)] - logt > eta)))
        best = k * logt - logM[k]
        tol = 1e-12 * np.maximum(1.0, np.abs(best))
        value[:] = np.maximum(best, 0.0)
        argmax[:] = np.where(best > 0.0, k, 0)
        trusted[:] = P * logt - logM[P] < best - tol
        todo = np.flatnonzero(~clear)
    for i in todo:
        res = omega(M, float(ts[i]))
        value[i], argmax[i], trusted[i] = res.value, res.argmax, res.trusted
    return value, argmax, trusted


def _window_omega(logM: np.ndarray, t: float) -> OmegaValue:
    """omega's scan over ln M_0..ln M_P for a checked t >= 0."""
    if t == 0.0:
        return OmegaValue(0.0, 0, True)
    P = logM.size - 1
    p = np.arange(P + 1, dtype=float)
    terms = p * math.log(t) - logM
    best = float(terms.max())
    tol = 1e-12 * max(1.0, abs(best))
    arg_last = int(np.flatnonzero(terms >= best - tol)[-1])
    value = max(best, 0.0)
    argmax = int(np.argmax(terms)) if best > 0.0 else 0
    return OmegaValue(value, argmax, arg_last < P)


def omega_extended(M: WeightSequence, t: float) -> OmegaValue:
    """omega for log-convex M, valid far beyond the window.

    The window value where omega trusts it; otherwise the term at the
    largest p with mu_p <= t and that p, from the step search of omega_mp,
    read as a float.  Past the window it requires a log-convex M with a
    ClosedForm generator (its quotients are exact where a difference of
    log-factorials would cancel).
    """
    _require_finite("omega_extended", t)
    if t <= 0:
        return OmegaValue(0.0, 0, True)
    res = omega(M, t)
    if res.trusted:
        return res
    term, p = _omega_step(M, math.log(t))
    value = float(term)
    if value == math.inf:
        raise UntrustedEvaluationError(
            f"omega_extended: omega of {M.name} at t={t:g} passes float "
            "range; omega_mp takes ln t and returns it in mpmath")
    return OmegaValue(value, int(p), True)


def _step_term(form: ClosedForm, logt, p_star):
    """(q ln t - ln M_q, q) at the largest q >= 1 of p_star - 1, p_star,
    p_star + 1 with ln mu_q <= ln t ((0, 0) if that term is <= 0), or None.

    term(q) - term(q - 1) = ln t - ln mu_q >= 0 while mu_q <= t, so that q
    carries the maximum; on a tie ln mu_q = ln t it is read at q - 1.
    """
    import mpmath as mp

    for q in (p_star + 1, p_star, p_star - 1):
        if q >= 1 and (log_mu := form.log_mu_mp(q)) <= logt:
            if log_mu == logt:  # terms q and q - 1 are equal
                q -= 1
            term = q * logt - form.log_M_mp(q)
            return (term, q) if term > 0 else (mp.mpf(0), 0)
    return None


def omega_mp(M: WeightSequence, log_t):
    """(log-domain argument) omega for log-convex closed-form sequences, mpmath result.

    Accepts ln t as a float (possibly ~1e10) and returns omega_M(t) as an
    mpf: the term at the largest p with mu_p <= t.  That p comes from the
    form's inverse quotient (ClosedForm.inverse_mu_mp).  Where p +- 1
    round to p at the working precision and none of them passes
    mu_p <= t, the argument is stepped down by one unit of relative
    precision, at most OMEGA_MP_STEP_DOWNS times; a p still unresolved
    raises UntrustedEvaluationError.  Quotients that fall past the window
    (b < 0, or b = 0 > a) give omega = inf at every t > 0: PreconditionError.
    The closed-form quotients are used directly: a loggamma difference at
    p ~ exp(1000) would cancel catastrophically at any workable precision.

    The term p ln t - ln M_p cancels about log10(ln p*) <= log10(ln t / a)
    digits; the call raises the working precision to OMEGA_MP_DIGITS plus
    that where it is lower.
    ln t = -inf (t = 0) gives 0; NaN and +inf are refused.
    """
    return _omega_step(M, log_t)[0]


def _omega_step(M: WeightSequence, log_t):
    """(term, p) of omega_mp: the term and the step index it is taken at."""
    import mpmath as mp

    if log_t != -math.inf:
        _require_finite("omega_mp", log_t, "ln t")
    form = M.generator
    if not isinstance(form, ClosedForm):
        raise UntrustedEvaluationError(
            f"omega_mp: {M.name} has no closed-form generator")
    if not is_log_convex(M):
        raise PreconditionError(f"omega_mp: {M.name} is not log-convex")
    if (form.b < 0 or form.b == 0 > form.a) and log_t > -math.inf:
        raise PreconditionError(f"omega_mp: quotients of {M.name} fall "
                                "past the window, so omega is infinite")
    if form.log_mu_mp(1) > log_t:
        return mp.mpf(0), 0
    if form.a == 0 and form.b == 0:  # every ln mu_p is 0 <= ln t
        raise UntrustedEvaluationError(
            f"omega_mp: quotients of {M.name} never exceed the argument")
    a = form.a if form.a > 0 else 1.0  # a <= 0: ln p* ~ ln ln t, well covered
    dps = OMEGA_MP_DIGITS + math.ceil(math.log10(abs(float(log_t)) + a)
                                      - math.log10(a))
    with mp.workdps(dps) if mp.mp.dps < dps else contextlib.nullcontext():
        logt = mp.mpf(log_t)
        for k in range(OMEGA_MP_STEP_DOWNS + 1):
            p_hat = form.inverse_mu_mp(logt * (1 - k * mp.eps))
            best = _step_term(form, logt, p_hat)
            if best is not None:
                return best
        raise UntrustedEvaluationError(f"omega_mp: p* of {M.name} at ln t = "
                                       f"{log_t} unresolved at {mp.mp.dps} digits")


def valid_to(M: WeightSequence) -> float:
    """Largest t with argmax(t) < P: below it the window is not censoring."""
    p = np.arange(M.P, dtype=float)
    slopes = (M.logM[-1] - M.logM[:-1]) / (M.P - p)
    return float(np.exp(min(float(slopes.max()), 700.0)))


@dataclass(frozen=True)
class AssociatedWeight:
    """Evaluator for omega_M with argmax diagnostics and trust bookkeeping."""

    source: WeightSequence
    valid_to: float

    @classmethod
    def of(cls, M: WeightSequence) -> "AssociatedWeight":
        return cls(source=M, valid_to=valid_to(M))

    def eval(self, t: float) -> float:
        return omega(self.source, t).value

    def argmax(self, t: float) -> int:
        return omega(self.source, t).argmax

    def trusted(self, t: float) -> bool:
        return omega(self.source, t).trusted

    def table(self, t_grid) -> list:
        """Rows (t, omega, argmax, trusted) for CSV emission."""
        rows = []
        for t in t_grid:
            r = omega(self.source, float(t))
            rows.append((float(t), r.value, r.argmax, r.trusted))
        return rows

    def write_csv(self, path, t_grid) -> list:
        """Write the table to a CSV file (floats at 17 significant digits)
        and return its rows."""
        rows = self.table(t_grid)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("t", "omega", "argmax", "trusted"))
            for r in rows:
                w.writerow((f"{r[0]:.17g}", f"{r[1]:.17g}", r[2], r[3]))
        return rows


def default_t_grid(M: WeightSequence, t_min: float = 1.0) -> np.ndarray:
    """Geometric grid of ratio 1.2 from t_min > 0 up to the trust bound
    (capped at e^60 for sequences whose windowed quotients already exceed
    float comfort)."""
    t_min = _number(t_min, "default_t_grid: t_min")
    _require_finite("default_t_grid", t_min, "t_min")
    if t_min <= 0:
        raise InvalidSequenceError(f"default_t_grid: t_min must be > 0, got {t_min}")
    hi = min(valid_to(M), math.exp(60.0))
    if hi <= t_min:
        raise CensoredWindowError(f"no trusted omega range above {t_min} for {M.name}")
    if hi / t_min == math.inf:
        raise InvalidSequenceError(
            f"default_t_grid: t_min={t_min:g} is more than float range below "
            f"the trust bound {hi:g} of {M.name}")
    n = int(math.floor(math.log(hi / t_min) / math.log(1.2)))
    return t_min * 1.2 ** np.arange(n + 1)


def integral_representation_residual(M: WeightSequence, t: float) -> float:
    """|omega_M(t) - sum_p p (ln min(mu_{p+1}, t) - ln mu_p)| over mu_p <= t.

    Both sides are computed independently (omega's supremum vs exact
    piecewise integration of the counting function over the k + 1 quotients
    it reads); requires log-convex M and an uncensored argument.
    """
    _require_finite("integral_representation_residual", t)
    if not is_log_convex(M):
        raise PreconditionError("integral representation needs log-convex M")
    res = omega(M, t)
    if not res.trusted:
        raise CensoredWindowError(f"omega untrusted at t={t:g} for {M.name}")
    logt = math.log(t) if t > 0 else -math.inf
    k = _window_count(M, logt)  # < P, so mu_{k+1} is windowed
    logmu = np.diff(M.logM[: k + 2])  # ln mu_1..ln mu_{k+1}
    upper = np.minimum(logmu[1:], logt)
    p = np.arange(1, k + 1, dtype=float)
    integral = float(np.sum(p * (upper - logmu[:k])))
    return abs(res.value - integral)


@dataclass(frozen=True)
class CountingScalingReport:
    k: int
    beta: float
    D: float                  # minimal D with Sigma(k^beta t) <= k Sigma(t) + D on grid
    D_omega: float            # minimal D1 with omega(k^beta t) <= (k+1) omega(t) + D1
    liminf_margin: float      # window tail min of ln(mu_{kp}/mu_p) - beta ln k
    grid: np.ndarray


def counting_scaling_residual(M: WeightSequence, k: int, beta: float,
                              t_grid) -> CountingScalingReport:
    """Scaling behaviour of the counting function under t -> k^beta t."""
    k = _integer(k, "counting scaling: factor k", 2)
    if not is_log_convex(M):
        raise PreconditionError("counting scaling needs log-convex M")
    grid = np.asarray(list(t_grid), dtype=float)
    if grid.size == 0:
        raise InvalidSequenceError("counting scaling: empty t grid")
    beta = _number(beta, "counting scaling: exponent beta")
    _require_finite("counting_scaling_residual", beta, "beta")
    try:
        scale = float(k) ** beta
    except OverflowError:
        raise InvalidSequenceError(
            f"counting scaling: k^beta = {k}^{beta:g} is past float range") from None
    excess = []
    excess_omega = []
    for t in grid:
        s1 = counting(M, scale * t)
        s0 = counting(M, t)
        excess.append(s1 - k * s0)
        w1 = omega(M, scale * t)
        w0 = omega(M, t)
        if not (w0.trusted and w1.trusted):
            raise CensoredWindowError(f"omega untrusted at t={t:g}")
        excess_omega.append(w1.value - (k + 1) * w0.value)
    logmu = quotients(M)
    idx = np.arange(1, M.P // k + 1)
    ratios = logmu[k * idx] - logmu[idx]
    tail = ratios[len(ratios) // 2:]
    margin = float(tail.min() - beta * math.log(k))
    return CountingScalingReport(
        k=k, beta=beta,
        D=float(max(0.0, max(excess))),
        D_omega=float(max(0.0, max(excess_omega))),
        liminf_margin=margin, grid=grid)


# ---------------------------------------------------------------------------
# growth gauge
# ---------------------------------------------------------------------------

def markin_bound(P: int = 512) -> WeightSequence:
    """The bound a_j = 1/ln(j)^j for j >= 2, a_0 = a_1 = 1.

    Dominates the little-m of every small Gevrey sequence; its roots
    a_j^(1/j) = 1/ln(j) decay to zero slower than any power.
    """
    P = _window_length(P, "markin_bound: window length P")
    gen = LogPowerBound()
    return WeightSequence("markin-bound", gen(np.arange(P + 1)), gen,
                          provenance="builtin:markin-bound")


@dataclass(frozen=True)
class GrowthGauge:
    """The triple (h, f, g) built from a bound sequence a.

    h(t) = log sum_k (t/2)^k/(a_k k!); f(t) = h(t/2)/t; g = sqrt(f).
    ``D_map`` records, per member sequence N, the window constant D with
    n_j <= D a_j.  A bound whose generator carries a rate (a
    ``LogPowerBound``) can be evaluated at astronomically large arguments.
    """

    a: WeightSequence
    D_map: dict
    decay_certified: bool

    # -- h ------------------------------------------------------------------
    def _log_a(self, ks: np.ndarray) -> np.ndarray:
        """ln a_k; a window-only bound is read at k <= P only (h caps k)."""
        if self.a.generator is not None:
            return np.asarray(self.a.generator(ks), dtype=float)
        return self.a.logM[np.asarray(ks).astype(int)]

    def h(self, t: float) -> float:
        """Direct log-sum-exp evaluation of the series."""
        _require_finite("h", t)
        if t <= 0:
            raise InvalidSequenceError("h: t must be > 0")
        # a t/2 that underflows to 0 still has a log
        logt2 = math.log(t / 2.0) if t / 2.0 > 0.0 else math.log(t) - LN2
        k_cap = DIRECT_KMAX if self.a.generator is not None else self.a.P
        lse = -math.inf
        peak = -math.inf
        block = 4096
        k0 = 0
        while k0 <= k_cap:
            ks = np.arange(k0, min(k0 + block, k_cap + 1), dtype=float)
            terms = ks * logt2 - self._log_a(ks) - log_factorial(ks)
            m = float(terms.max())
            M_ = max(lse, m)
            lse = M_ + math.log(math.exp(lse - M_) + float(np.sum(np.exp(terms - M_))))
            peak = max(peak, m)
            if float(terms[-1]) < peak + math.log(SERIES_RELATIVE_CUTOFF):
                return lse
            k0 += block
        raise CensoredWindowError(
            f"h: series not decayed by k={k_cap} at t={t:g}; "
            "enlarge the bound window or use log_h")

    def _astronomic_peak(self, x: float) -> float:
        """max of v + ln(1 - v - r(x + v)) over v = ln k - x, r the rate.

        Past float range ln h(t) = x + this maximum at x = ln(t/2): the
        k-th series term over k is x - r(ln k) - (ln k - 1) + O(ln k / k).
        Offset coordinates keep the maximum free of the rounding of x.
        The peak solves its stationarity equation v = -r(x + v) - r'(x + v)
        by plain iteration from v = 1, capped at 60 steps; an iterate equal
        to the one before is the fixed point and ends it.
        """
        bound = self.a.generator
        if not isinstance(bound, LogPowerBound):
            raise CensoredWindowError(
                f"gauge: {self.a.name} carries no rate function, needed at x = {x:g}")
        v = 1.0
        for _ in range(60):
            v_next = -bound.rate(x + v) - bound.deriv(x + v)
            if v_next == v:
                break
            v = v_next
        return v + math.log(1.0 - v - bound.rate(x + v))

    def log_h(self, log_t: float) -> float:
        """ln h(t) for ln t possibly far beyond float range of t itself."""
        if log_t < 12.0:  # peak index ~< 1e6: direct summation
            return math.log(max(self.h(math.exp(log_t)), 1e-300))
        _require_finite("log_h", log_t, "ln t")
        x = log_t - LN2  # = ln(t/2)
        if self.a.generator is not None and log_t < 600.0:
            # float-range Laplace: maximize phi(k) over ln k
            def phi(u):
                kk = math.exp(u)
                return (kk * x - float(self._log_a(np.array([kk]))[0])
                        - float(log_factorial(kk)))
            u_hi = 16.0
            while phi(u_hi) > phi(u_hi - 0.5):
                u_hi += 4.0
                if u_hi > 700.0:
                    break
            u_star = _ternary_max(phi, 0.0, u_hi, 90)
            h_val = phi(u_star) + 0.5 * (math.log(2 * math.pi) + u_star)
            return math.log(max(h_val, 1e-300))
        return x + self._astronomic_peak(x)

    # -- f, g ----------------------------------------------------------------
    def f(self, t: float) -> float:
        return self.h(t / 2.0) / t

    def g(self, t: float) -> float:
        return math.sqrt(max(self.f(t), 0.0))

    def log_g(self, log_t: float) -> float:
        """ln g(t) from ln t; valid at astronomically large arguments.

        Beyond float range ln h(t/2) - ln t is the astronomic peak minus
        ln 4, so no two ~1e15 floats are subtracted (that would quantize
        the result at their ULP).
        """
        if log_t - LN2 < 600.0:
            return 0.5 * (self.log_h(log_t - LN2) - log_t)
        _require_finite("log_g", log_t, "ln t")
        return 0.5 * (self._astronomic_peak(log_t - 2.0 * LN2) - 2.0 * LN2)


MEMBER_PROBE_JMAX = 1e18


def _member_bound_record(N: WeightSequence, a: WeightSequence) -> dict:
    """Locate sup_j n_j/a_j (log domain) for a member N against the bound a.

    The window maximum is always available.  When the ratio still grows at
    the window end, generator-backed members are probed at dyadic j far
    beyond the window; the sup of small-Gevrey members against the
    log-power bound sits near j ~ exp(ln ln j / (1 - alpha)), well outside
    any stored window for alpha close to 1.
    """
    n = little_m(N)
    P = min(N.P, a.P)
    ratio = n.logM[: P + 1] - a.logM[: P + 1]
    log_D = float(ratio.max())
    arg = float(np.argmax(ratio))
    growing = bool(ratio[-1] >= ratio.max() - 1e-12
                   and ratio[-1] > ratio[3 * P // 4] + 1e-9)
    if not growing:
        return {"log_D": log_D, "argmax_j": arg}
    if n.generator is None or a.generator is None:
        raise PreconditionError(
            f"gauge: member {N.name} ratio still grows at the window end and "
            "no generator is available to certify a bound")

    def ratio_at(j):
        return float(n.generator(j) - a.generator(j))

    prev_j, prev_v = float(P), ratio[-1]
    j = float(P)
    turned = None
    while j < MEMBER_PROBE_JMAX:
        j *= 2.0
        v = ratio_at(j)
        if v < prev_v:
            turned = (prev_j / 2.0, j)
            break
        prev_j, prev_v = j, v
    if turned is None:
        raise PreconditionError(
            f"gauge: member {N.name} exceeds every tested bound multiple of "
            f"{a.name} (ratio still growing at j={MEMBER_PROBE_JMAX:.0e})")
    peak_j = _ternary_max(ratio_at, *turned, 200)
    log_D = max(log_D, ratio_at(peak_j))
    return {"log_D": log_D, "argmax_j": peak_j}


def build_gauge(a: WeightSequence,
                members: Sequence[WeightSequence] = ()) -> GrowthGauge:
    """Assemble a GrowthGauge from a bound sequence and member sequences.

    For each member N a record with the bound constant ln D
    (n_j <= D a_j for all j, n = little-m of N) is stored in D_map.
    A member whose ratio cannot be certified bounded is rejected.  The decay
    of a_k^(1/k) is certified on the window and recorded (a constant fixture
    like a_k = 1 builds fine but is flagged as not decay-certified).
    """
    ks = np.arange(1, a.P + 1, dtype=float)
    roots = a.logM[1:] / ks
    tail = roots[len(roots) // 2:]
    decay = bool(tail[-1] < -0.05 and tail[-1] <= tail[0] + 1e-12
                 and np.all(np.diff(tail) <= 1e-9))
    D_map = {N.name: _member_bound_record(N, a) for N in members}
    return GrowthGauge(a=a, D_map=D_map, decay_certified=decay)


@dataclass(frozen=True)
class MarginReport:
    t_grid: np.ndarray
    margins: np.ndarray
    increasing_from: Optional[float]  # grid point past which margins increase
    positive_from: Optional[float]    # grid point past which margins stay > 0


def divergence_margin(N: WeightSequence, gauge: GrowthGauge, s: float,
                      d: float, t_grid) -> MarginReport:
    """s*omega_N(t/2) - d*g(t)*t on a grid, with trend diagnostics."""
    _require_finite("divergence_margin", s, "s")
    _require_finite("divergence_margin", d, "d")
    if s <= 0 or d <= 0:
        raise InvalidSequenceError("divergence margin needs s, d > 0")
    grid = np.asarray(list(t_grid), dtype=float)
    margins = np.empty_like(grid)
    for i, t in enumerate(grid):
        w = omega_extended(N, t / 2.0)
        margins[i] = s * w.value - d * gauge.g(t) * t
    inc_from = None
    for i in range(len(grid) - 1, 0, -1):
        if margins[i] <= margins[i - 1]:
            inc_from = grid[i] if i < len(grid) - 1 else None
            break
        inc_from = grid[i - 1]
    pos = np.flatnonzero(margins <= 0)
    pos_from = grid[pos[-1] + 1] if pos.size and pos[-1] + 1 < len(grid) else (
        grid[0] if not pos.size else None)
    return MarginReport(t_grid=grid, margins=margins,
                        increasing_from=inc_from, positive_from=pos_from)


# ---------------------------------------------------------------------------
# uniform bound construction for one-parameter families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformBoundResult:
    a: WeightSequence
    j_breaks: list          # [j_1, ..., j_{K+1}]; a/n^(k) roots >= k past j_{k+1}
    roots_nonincreasing: bool
    roots_final: float      # a_j^(1/j) at j = P
    params: list


def _family_hypothesis_check(logms: list, P: int) -> None:
    """Items (i)-(v): normalization, pointwise order, root decay,
    non-increasing roots, large growth difference."""
    j = np.arange(1, P + 1, dtype=float)
    for i, lm in enumerate(logms):
        if abs(lm[0]) > 1e-12:
            raise PreconditionError(f"hypothesis (i) fails: member {i+1} not normalized")
    for i in range(len(logms) - 1):
        if np.any(logms[i] > logms[i + 1] + 1e-12):
            raise PreconditionError(
                f"hypothesis (ii) fails: members {i+1},{i+2} not pointwise ordered")
    for i, lm in enumerate(logms):
        roots = lm[1:] / j
        tail = roots[P // 2:]
        if not (np.all(np.diff(roots) <= 1e-12)):
            raise PreconditionError(
                f"hypothesis (iv) fails: member {i+1} roots not non-increasing")
        if not (tail[-1] < -0.05):
            raise PreconditionError(
                f"hypothesis (iii) fails: member {i+1} roots show no decay to 0")
    for i in range(len(logms) - 1):
        gap = (logms[i + 1][1:] - logms[i][1:]) / j
        tail = gap[P // 2:]
        if not (np.all(np.diff(tail) >= -1e-12) and tail[-1] > 0):
            raise PreconditionError(
                f"hypothesis (v) fails: members {i+1},{i+2} lack growing root gap")


def uniform_bound_construct(family: SequenceFamily, K: int,
                            P: Optional[int] = None,
                            params: Optional[Sequence[float]] = None) -> UniformBoundResult:
    """Build a bound a with non-increasing roots decaying to 0 that
    eventually dominates every family member's little-m roots by factor k.

    Stage k >= 1 picks the smallest j_{k+1} > j_k with

      (n^{(k)}_{j_k})^{1/j_k} > k (n^{(k+1)}_{j_{k+1}})^{1/j_{k+1}}      (growth drop)
      (n^{(k+1)}_j)^{1/j} / (n^{(k)}_j)^{1/j} >= k  for all j >= j_{k+1} (gap)

    and sets a_j^{1/j} = (n^{(k)}_{j_k})^{1/j_k} on [j_k, j_{k+1}).  The gap
    condition is verified on [j_{k+1}, P] together with the monotone trend
    certificate from hypothesis (v).
    """
    K = _integer(K, "uniform bound: stage count K", 0)
    if params is None:
        params = [float(k) for k in range(1, K + 2)]
    if len(params) != K + 1:
        raise InvalidSequenceError(f"need K+1={K+1} parameters, got {len(params)}")
    PP = _integer(P if P is not None else family.P, "uniform bound: window length P", 0)
    members = [family.member(b, PP) for b in params]
    logms = [little_m(N).logM for N in members]
    _family_hypothesis_check(logms, PP)
    j = np.arange(1, PP + 1, dtype=float)
    # rho_k(j) = -log root of n^{(k)}_j  (positive, increasing in j)
    rho = [-lm[1:] / j for lm in logms]

    j_breaks = [1]
    for k in range(1, K + 1):
        lnk = math.log(k)
        target = rho[k - 1][j_breaks[-1] - 1] + lnk
        cond1 = rho[k] > target
        # gap condition: (n^{(k+1)}_j / n^{(k)}_j)^{1/j} >= k,
        # i.e. rho_k(j) - rho_{k+1}(j) >= ln k
        gap = rho[k - 1] - rho[k]
        cond2 = gap >= lnk - 1e-15
        ok = cond1 & cond2 & (j > j_breaks[-1])
        cand = np.flatnonzero(ok)
        if cand.size == 0:
            raise CensoredWindowError(
                f"uniform bound: window exhausted before finding j_{k+1} "
                f"(stage k={k}, P={PP})", required_P=2 * PP)
        jk1 = int(cand[0] + 1)
        if np.any(~cond2[jk1 - 1:]):
            raise CensoredWindowError(
                f"uniform bound: gap condition breaks beyond j_{k+1} at stage {k}")
        j_breaks.append(jk1)
    # assemble a: a_0 = 1, a_j^(1/j) piecewise constant on [j_k, j_{k+1})
    log_a = np.zeros(PP + 1)
    bounds = j_breaks + [PP + 1]
    for k in range(1, K + 2):
        lo, hi = bounds[k - 1], bounds[k]
        level = -rho[k - 1][j_breaks[k - 1] - 1]  # log root of n^{(k)} at j_k
        idx = np.arange(lo, min(hi, PP + 1))
        log_a[idx] = idx * level
    roots = log_a[1:] / j
    a = WeightSequence("uniform-bound", log_a,
                       provenance=f"transform:uniform_bound({family.name})")
    return UniformBoundResult(
        a=a, j_breaks=j_breaks,
        roots_nonincreasing=bool(np.all(np.diff(roots) <= 1e-12)),
        roots_final=float(math.exp(roots[-1])),
        params=list(params))
