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

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import gammaln

from .errors import (CensoredWindowError, InvalidSequenceError,
                     PreconditionError, UntrustedEvaluationError)
from .seqcore import (ClosedForm, WeightSequence, SequenceFamily,
                      is_log_convex, little_m, quotients)

LN2 = math.log(2.0)

# h-series evaluation: direct summation while the peak index stays below this
DIRECT_KMAX = 2_000_000
# relative mass cutoff for series truncation past the peak
SERIES_RELATIVE_CUTOFF = 1e-16
# omega_mp brackets ln p* starting from [0, this]
OMEGA_MP_U_START = 8.0


def _require_finite(fn: str, t: float) -> None:
    if not math.isfinite(t):
        raise InvalidSequenceError(f"{fn}: t must be finite, got {t}")


# ---------------------------------------------------------------------------
# one-dimensional searches; fixed step counts, which fix the report bytes
# ---------------------------------------------------------------------------

def _ternary_max(f, lo, hi, steps: int):
    """Argmax of a unimodal f on [lo, hi]: midpoint after ``steps`` cuts."""
    for _ in range(steps):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if f(m1) < f(m2):
            lo = m1
        else:
            hi = m2
    return 0.5 * (lo + hi)


def _bracket_bisect(holds, lo, hi, cap, steps: int):
    """(lo, hi) around where a monotone predicate stops holding, or None.

    hi doubles while ``holds(hi)`` (None once it passes ``cap``), then
    ``steps`` halvings keep holds(lo) true and holds(hi) false.
    """
    while holds(hi):
        lo = hi
        hi *= 2
        if hi > cap:
            return None
    for _ in range(steps):
        mid = (lo + hi) / 2
        if holds(mid):
            lo = mid
        else:
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
    logmu = quotients(M).logmu[1:]
    logt = math.log(t) if t > 0 else -math.inf
    if is_log_convex(M):
        if logt > logmu[-1]:
            raise CensoredWindowError(
                f"counting: t={t:g} exceeds mu_P={math.exp(logmu[-1]):g} of {M.name}",
                required_P=M.P + 1)
        return int(np.searchsorted(logmu, logt, side="right"))
    if logt >= logmu.max():
        raise CensoredWindowError(
            f"counting: t={t:g} reaches the largest windowed quotient of {M.name}")
    return int(np.count_nonzero(logmu <= logt))


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
    boundary, i.e. the window may be censoring the true value.
    """
    _require_finite("omega", t)
    if t < 0:
        raise InvalidSequenceError("omega: t must be >= 0")
    if t == 0.0:
        return OmegaValue(0.0, 0, True)
    p = np.arange(M.P + 1, dtype=float)
    terms = p * math.log(t) - M.logM
    best = float(terms.max())
    tol = 1e-12 * max(1.0, abs(best))
    arg_last = int(np.flatnonzero(terms >= best - tol)[-1])
    value = max(best, 0.0)
    argmax = int(np.argmax(terms)) if best > 0.0 else 0
    return OmegaValue(value, argmax, arg_last < M.P)


def omega_extended(M: WeightSequence, t: float) -> OmegaValue:
    """Closed-form-backed omega for log-convex M, valid far beyond the window.

    Uses the step structure: the supremum is attained at the largest p with
    mu_p <= t.  Requires a ClosedForm generator (its quotients are exact
    where a difference of log-factorials would cancel) and non-decreasing
    quotients.
    """
    _require_finite("omega_extended", t)
    if t <= 0:
        return OmegaValue(0.0, 0, True)
    valid = valid_to(M)
    if t <= valid:
        res = omega(M, t)
        if res.trusted:
            return res
    form = M.generator
    if not isinstance(form, ClosedForm):
        raise UntrustedEvaluationError(
            f"omega: t={t:g} beyond trusted range of {M.name} and no closed form")
    if not is_log_convex(M):
        raise PreconditionError(
            f"omega_extended: {M.name} is not log-convex; cannot use step search")
    logt = math.log(t)

    def logquot(p):
        return float(form.log_mu(p))

    if logquot(1) > logt:
        return OmegaValue(0.0, 0, True)
    bracket = _bracket_bisect(lambda p: logquot(p) <= logt, 1, 2, 2**62, 0)
    if bracket is None:
        raise UntrustedEvaluationError(
            f"omega: quotients of {M.name} never exceed t={t:g} (supremum censored)")
    lo, hi = bracket  # integer halving: real midpoints past 2^53 are not integers
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if logquot(mid) <= logt:
            lo = mid
        else:
            hi = mid
    value = lo * logt - float(form(lo))
    return OmegaValue(max(value, 0.0), lo, True)


def omega_mp(M: WeightSequence, log_t):
    """(log-domain argument) omega for log-convex closed-form sequences, mpmath result.

    Accepts ln t as a float (possibly ~1e10) and returns omega_M(t) as an
    mpf, found via the largest p with mu_p <= t located by bisection on
    ln p.  The closed-form quotients are used directly: a loggamma
    difference at p ~ exp(1000) would cancel catastrophically at any
    workable precision.
    """
    import mpmath as mp

    form = M.generator
    if not isinstance(form, ClosedForm):
        raise UntrustedEvaluationError(
            f"omega_mp: {M.name} has no closed-form generator")
    if not is_log_convex(M):
        raise PreconditionError(f"omega_mp: {M.name} is not log-convex")
    gen = form.log_M_mp
    quot = form.log_mu_mp
    logt = mp.mpf(log_t)

    if quot(1) > logt:
        return mp.mpf(0)
    cap = mp.mpf(max(1e12, 1e6 * (1.0 + abs(float(log_t)))))
    bracket = _bracket_bisect(lambda u: quot(mp.exp(u)) <= logt,
                              mp.mpf(0), mp.mpf(OMEGA_MP_U_START), cap, 70)
    if bracket is None:
        raise UntrustedEvaluationError(
            f"omega_mp: quotients of {M.name} never exceed the argument")
    p_star = mp.floor(mp.exp(bracket[0]))
    best = mp.mpf(0)
    for q in (p_star - 1, p_star, p_star + 1):
        if q >= 1 and quot(q) <= logt:
            cand = q * logt - gen(q)
            if cand > best:
                best = cand
    return best


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


def default_t_grid(M: WeightSequence, t_min: float = 1.0,
                   ratio: float = 1.2) -> np.ndarray:
    """Geometric grid from t_min up to the trust bound (capped at e^60 for
    sequences whose windowed quotients already exceed float comfort)."""
    hi = min(valid_to(M), math.exp(60.0))
    if hi <= t_min:
        raise CensoredWindowError(f"no trusted omega range above {t_min} for {M.name}")
    n = int(math.floor(math.log(hi / t_min) / math.log(ratio)))
    return t_min * ratio ** np.arange(n + 1)


def integral_representation_residual(M: WeightSequence, t: float) -> float:
    """|omega_M(t) - sum_p p (ln min(mu_{p+1}, t) - ln mu_p)| over mu_p <= t.

    Both sides are computed independently (sup scan vs exact piecewise
    integration of the counting function); requires log-convex M and an
    uncensored argument.
    """
    _require_finite("integral_representation_residual", t)
    if not is_log_convex(M):
        raise PreconditionError("integral representation needs log-convex M")
    res = omega(M, t)
    if not res.trusted:
        raise CensoredWindowError(f"omega untrusted at t={t:g} for {M.name}")
    logmu = quotients(M).logmu[1:]
    logt = math.log(t) if t > 0 else -math.inf
    if t > 0 and logt > logmu[-1]:
        raise CensoredWindowError(f"t={t:g} beyond counting range of {M.name}")
    k = int(np.searchsorted(logmu, logt, side="right"))  # = Sigma_M(t)
    if k == 0:
        integral = 0.0
    else:
        logmu_ext = np.append(logmu, np.inf)  # sentinel mu_{P+1}
        upper = np.minimum(logmu_ext[1 : k + 1], logt)
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
    if k < 2:
        raise InvalidSequenceError("scaling factor k must be >= 2")
    if not is_log_convex(M):
        raise PreconditionError("counting scaling needs log-convex M")
    grid = np.asarray(list(t_grid), dtype=float)
    scale = float(k) ** beta
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
    logmu = quotients(M).logmu
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
    def gen(p):
        p = np.asarray(p, dtype=float)
        return np.where(p >= 2, -p * np.log(np.log(np.maximum(p, 2.0))), 0.0)

    return WeightSequence("markin-bound", gen(np.arange(P + 1)), gen,
                          provenance="builtin:markin-bound")


def _markin_rate(u: float) -> float:
    # log_a(k)/k = -ln ln k = -ln u  at u = ln k
    return -math.log(u)


@dataclass
class GrowthGauge:
    """The triple (h, f, g) built from a bound sequence a.

    h(t) = log sum_k (t/2)^k/(a_k k!); f(t) = h(t/2)/t; g = sqrt(f).
    ``D_map`` records, per member sequence N, the window constant D with
    n_j <= D a_j.  ``a_rate`` (optional) gives log_a(k)/k as a function of
    ln k and unlocks evaluation at astronomically large arguments.
    """

    a: WeightSequence
    D_map: dict
    decay_certified: bool
    a_rate: Optional[Callable[[float], float]] = None
    t0: Optional[float] = None  # past this sampled point g was non-decreasing

    # -- h ------------------------------------------------------------------
    def _log_a(self, ks: np.ndarray) -> np.ndarray:
        if self.a.generator is not None:
            return np.asarray(self.a.generator(ks), dtype=float)
        ks = np.asarray(ks)
        if ks.max() > self.a.P:
            raise CensoredWindowError(
                f"gauge bound window exhausted at k={int(ks.max())}",
                required_P=int(ks.max()))
        return self.a.logM[ks.astype(int)]

    def h(self, t: float) -> float:
        """Direct log-sum-exp evaluation of the series."""
        if t <= 0:
            raise InvalidSequenceError("h: t must be > 0")
        logt2 = math.log(t / 2.0)
        k_cap = DIRECT_KMAX if self.a.generator is not None else self.a.P
        lse = -math.inf
        peak = -math.inf
        block = 4096
        k0 = 0
        while k0 <= k_cap:
            ks = np.arange(k0, min(k0 + block, k_cap + 1), dtype=float)
            terms = ks * logt2 - self._log_a(ks) - gammaln(ks + 1.0)
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

    def log_h(self, log_t: float) -> float:
        """ln h(t) for ln t possibly far beyond float range of t itself."""
        if log_t < 12.0:  # peak index ~< 1e6: direct summation
            return math.log(max(self.h(math.exp(log_t)), 1e-300))
        x = log_t - LN2  # = ln(t/2)
        if self.a.generator is not None and log_t < 600.0:
            # float-range Laplace: maximize phi(k) over ln k
            def phi(u):
                kk = math.exp(u)
                return (kk * x - float(self._log_a(np.array([kk]))[0])
                        - float(gammaln(kk + 1.0)))
            u_hi = 16.0
            while phi(u_hi) > phi(u_hi - 0.5):
                u_hi += 4.0
                if u_hi > 700.0:
                    break
            u_star = _ternary_max(phi, 0.0, u_hi, 90)
            h_val = phi(u_star) + 0.5 * (math.log(2 * math.pi) + u_star)
            return math.log(max(h_val, 1e-300))
        if self.a_rate is None:
            raise CensoredWindowError(
                "log_h: argument beyond float range and no rate function for a")
        # astronomic range: phi(k)/k = x - rate(ln k) - lgamma(k+1)/k, the
        # latter = ln k - 1 + O(ln k / k); maximize w(u) = u + ln(phi/k)
        def w(u):
            psi = x - self.a_rate(u) - (u - 1.0)
            if psi <= 0:
                return -math.inf
            return u + math.log(psi)
        # peak sits near u* = x - rate(u*) + 1; leave generous headroom
        u_hi = x + 2.0 * math.log(max(x, 10.0)) + 50.0
        return w(_ternary_max(w, 2.0, u_hi, 140))

    # -- f, g ----------------------------------------------------------------
    def f(self, t: float) -> float:
        return self.h(t / 2.0) / t

    def g(self, t: float) -> float:
        return math.sqrt(max(self.f(t), 0.0))

    def log_g(self, log_t: float) -> float:
        """ln g(t) from ln t; valid at astronomically large arguments.

        Beyond float range the difference ln h(t/2) - ln t is formed in
        offset coordinates v = ln k - x (x = ln(t/4)): subtracting two
        ~1e15 floats directly would quantize the result at their ULP.
        """
        if log_t - LN2 < 600.0 or self.a_rate is None:
            return 0.5 * (self.log_h(log_t - LN2) - log_t)
        x = log_t - 2.0 * LN2  # ln of the series argument t/4

        def wv(v):
            psi = 1.0 - v - self.a_rate(x + v)
            if psi <= 0:
                return -math.inf
            return v + math.log(psi)

        v_hi = 2.0 * math.log(max(x, 10.0)) + 50.0
        W = wv(_ternary_max(wv, -5.0, v_hi, 120))
        return 0.5 * (W - 2.0 * LN2)

    def dump_rows(self, k_max: int) -> list:
        ks = np.arange(k_max + 1)
        la = self._log_a(ks.astype(float))
        return [(int(k), float(v)) for k, v in zip(ks, la)]


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
        return {"log_D": log_D, "argmax_j": arg, "certified": True}
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
    return {"log_D": log_D, "argmax_j": peak_j, "certified": True}


def build_gauge(a: WeightSequence, members: Sequence[WeightSequence] = (),
                a_rate: Optional[Callable[[float], float]] = None) -> GrowthGauge:
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
    if a_rate is None and a.provenance == "builtin:markin-bound":
        a_rate = _markin_rate
    D_map = {N.name: _member_bound_record(N, a) for N in members}
    gauge = GrowthGauge(a=a, D_map=D_map, decay_certified=decay, a_rate=a_rate)
    # sampled monotonicity diagnostic for g
    try:
        grid = np.geomspace(4.0, 4096.0, 24)
        vals = [gauge.g(float(t)) for t in grid]
        t0 = grid[0]
        for i in range(len(vals) - 1):
            if vals[i + 1] < vals[i] - 1e-12:
                t0 = grid[i + 1]
        gauge.t0 = float(t0)
    except CensoredWindowError:
        gauge.t0 = None
    return gauge


@dataclass(frozen=True)
class MarginReport:
    t_grid: np.ndarray
    margins: np.ndarray
    increasing_from: Optional[float]  # grid point past which margins increase
    positive_from: Optional[float]    # grid point past which margins stay > 0


def divergence_margin(N: WeightSequence, gauge: GrowthGauge, s: float,
                      d: float, t_grid) -> MarginReport:
    """s*omega_N(t/2) - d*g(t)*t on a grid, with trend diagnostics."""
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
    j_breaks: list          # [j_1, ..., j_{K+1}]
    ratio_indices: dict     # k -> index past which a_j^(1/j)/(n^k_j)^(1/j) >= k
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
    if params is None:
        params = [float(k) for k in range(1, K + 2)]
    if len(params) != K + 1:
        raise InvalidSequenceError(f"need K+1={K+1} parameters, got {len(params)}")
    PP = int(P if P is not None else family.P)
    members = [family.member(b, PP) for b in params]
    logms = [little_m(N).logM for N in members]
    _family_hypothesis_check(logms, PP)
    j = np.arange(1, PP + 1, dtype=float)
    # rho_k(j) = -log root of n^{(k)}_j  (positive, increasing in j)
    rho = [-lm[1:] / j for lm in logms]

    j_breaks = [1]
    ratio_indices = {}
    for k in range(1, K + 1):
        lnk = math.log(k)
        target = rho[k - 1][j_breaks[-1] - 1] + lnk
        cond1 = rho[k][:] > target
        # gap condition: (n^{(k+1)}_j / n^{(k)}_j)^{1/j} >= k,
        # i.e. rho_k(j) - rho_{k+1}(j) >= ln k
        gap = rho[k - 1] - rho[k]
        cond2 = gap >= lnk - 1e-15
        ok = cond1 & cond2 & (j > j_breaks[-1])
        cand = np.flatnonzero(ok)
        if cand.size == 0:
            raise CensoredWindowError(
                f"uniform bound: window exhausted before finding j_{k+1} "
                f"(stage k={k}, P={PP})", required_P=PP)
        jk1 = int(cand[0] + 1)
        if np.any(~cond2[jk1 - 1:]):
            raise CensoredWindowError(
                f"uniform bound: gap condition breaks beyond j_{k+1} at stage {k}")
        j_breaks.append(jk1)
        ratio_indices[k] = jk1
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
        a=a, j_breaks=j_breaks, ratio_indices=ratio_indices,
        roots_nonincreasing=bool(np.all(np.diff(roots) <= 1e-12)),
        roots_final=float(math.exp(roots[-1])),
        params=list(params))
