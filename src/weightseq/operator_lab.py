"""Diagonal-operator spectral sums at desk scale.

A normal operator with unbounded spectrum admits a vector f whose spectral
sums against every exponential weight e^(2t|lambda|) converge while the
sums against each associated weight e^(2 omega_M(t|lambda|)) of a family of
small sequences diverge.  The construction picks eigenvalues lambda_n =
k(n) + 1/2 inside disjoint rings, with k(n) chosen so the growth gauge g
satisfies g(k(n)) >= n, and coefficients

    c_n = g(k(n))^(-(k(n) + 1 - eps_n)).

The gauge grows like sqrt(ln t), so k(n) explodes doubly-exponentially in
n; all ring data is therefore kept in log domain and the spectral sums run
in arbitrary-precision (mpmath) arithmetic, where magnitudes like
exp(exp(57600)) are representable exactly as scaled powers of two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import mpmath as mp
import numpy as np

from .errors import (InvalidSequenceError, PreconditionError,
                     UntrustedEvaluationError)
from .seqcore import ClosedForm, WeightSequence, _integer, gevrey
from .weights import (GrowthGauge, _bracket_bisect, _require_finite,
                      build_gauge, markin_bound, omega, omega_mp)

MP_DPS = 50
# ln of the largest float: e^x overflows past it
LOG_FLOAT_MAX = math.log(np.finfo(float).max)
INTEGER_EXACT_LIMIT = 2.0**53
# the threshold search for ln k(n) gives up past this
COUNTEREXAMPLE_SEARCH_CAP = 1e16

# the ring demonstration: members gevrey(0.1) .. gevrey(0.9), the Markin
# bound at P = 512, and the t grids of the two spectral sums
RING_ORDERS = tuple(round(0.1 * i, 1) for i in range(1, 10))
RING_BOUND_P = 512
T_EXP = (0.5, 1.0, 2.0, 5.0, 10.0)
T_WEIGHTED = (1.0, 2.0)
# the gauge threshold may be taken with overshoot: any k(n) with
# g(k(n)) >= n is admissible, and the finite-term convergence
# certificates need ln g above the tested exponential rates
RING_LOG_G_FLOOR_SLOPE = (11.0, 0.05)


@dataclass(frozen=True)
class DiagonalOperatorModel:
    """Eigenvalue list of a diagonal normal operator, log domain.

    loglam[i] = ln lambda_{i+1}.  For ring-constructed models the ring data
    (ln k(n), eps_n, ln g(k(n))) is carried along; k(n) values at or below
    2^53 are exact integers, larger ones are real solutions of the gauge
    threshold (flagged by ``integral_k``).
    """

    loglam: np.ndarray
    logk: Optional[np.ndarray] = None
    eps: Optional[np.ndarray] = None
    log_g_at_k: Optional[np.ndarray] = None
    integral_k: Optional[np.ndarray] = None

    @property
    def n_terms(self) -> int:
        return self.loglam.size

    def lambdas_mp(self) -> list:
        return [mp.exp(mp.mpf(float(v))) for v in self.loglam]


@dataclass(frozen=True)
class SpectralVector:
    """Coefficients of a vector in the eigenbasis, logs as mpf values."""

    logc: tuple  # tuple of mpf

    @property
    def n_terms(self) -> int:
        return len(self.logc)

    def scaled(self, factor: float) -> "SpectralVector":
        """The vector times a factor >= 0; a negative, NaN or infinite factor
        (its ln is complex, NaN or inf) is refused."""
        lf = mp.log(mp.mpf(factor))
        if not (isinstance(lf, mp.mpf) and lf < mp.inf):
            raise InvalidSequenceError(
                f"scaled: factor must be finite and >= 0, got {factor!r}")
        return SpectralVector(tuple(c + lf for c in self.logc))

    def l2_report(self) -> dict:
        """Partial sum of |c_n|^2 (log), its largest tail log-ratio, and
        whether the series certificate calls the sum converged (False: not
        certified)."""
        rep = _certify([2 * c for c in self.logc], 0.0)
        return {"log_sum": rep.log_partial_sum,
                "max_log_ratio": rep.max_tail_log_ratio,
                "summable": rep.converged}


_LSE_GAP = mp.mpf(-10000)  # exp of anything below this cannot move the sum


def _lse(logs) -> mp.mpf:
    m = max(logs)
    if m == -mp.inf:
        return mp.mpf(-mp.inf)
    # exponent integers of exp(x - m) grow linearly with the gap value; a
    # gap of -1e15 would need terabytes, so hopeless contributions are dropped
    acc = mp.fsum(mp.exp(x - m) for x in logs if (x - m) >= _LSE_GAP)
    return m + mp.log(acc)


def from_floats(lambdas, coeff_logs) -> tuple:
    """Desk-scale model from plain eigenvalues and ln|c_n| (-inf: c_n = 0)."""
    lam = np.asarray(lambdas, dtype=float)
    if lam.size == 0:
        raise InvalidSequenceError("from_floats: no eigenvalues")
    if not (np.all(np.isfinite(lam) & (lam > 0)) and np.all(np.diff(lam) > 0)):
        raise InvalidSequenceError("eigenvalues must be finite, positive and increasing")
    logc = np.asarray(coeff_logs, dtype=float)
    if not np.all(logc < np.inf):  # NaN and +inf
        raise InvalidSequenceError("coefficient logs must be finite or -inf")
    model = DiagonalOperatorModel(loglam=np.log(lam))
    vec = SpectralVector(tuple(mp.mpf(float(v)) for v in logc))
    if vec.n_terms != model.n_terms:
        raise InvalidSequenceError("coefficient count differs from eigenvalue count")
    return model, vec


# ---------------------------------------------------------------------------
# ring construction
# ---------------------------------------------------------------------------

def build_counterexample(gauge: GrowthGauge, n_terms: int = 120,
                         log_g_floor: float = 0.0,
                         log_g_slope: float = 0.0) -> tuple:
    """Ring eigenvalues and coefficient vector from an unbounded gauge.

    k(n) is the threshold where the gauge reaches max(n, exp(floor+slope*n));
    with floor = slope = 0 this is the minimal choice g(k(n)) >= n.  A
    positive floor makes the gauge overshoot the tested exponential rates,
    which is what a finite-term demonstration of the convergence side needs
    (any k(n) with g(k(n)) >= n is admissible for the construction).
    """
    if not gauge.decay_certified:
        raise PreconditionError(
            "counterexample needs a gauge with certified a_k^(1/k) decay")
    n_terms = _integer(n_terms, "n_terms", 1)
    if n_terms > 200:
        raise InvalidSequenceError("n_terms must be in 1..200")
    _require_finite("build_counterexample", log_g_floor, "log_g_floor")
    _require_finite("build_counterexample", log_g_slope, "log_g_slope")
    logk = np.empty(n_terms)
    eps = np.empty(n_terms)
    lng = np.empty(n_terms)
    integral = np.zeros(n_terms, dtype=bool)
    prev = 0.0
    for i in range(n_terms):
        n = i + 1
        target = max(math.log(n), log_g_floor + log_g_slope * n)
        lo = max(prev + 1e-9, math.log(n), 1.0)
        # ln g ~ sqrt(ln k)/2 asymptotically, so ln k ~ 4 exp(2 ln g)
        try:
            hi = max(lo + 4.0, 8.0, 5.0 * math.exp(2.0 * target))
        except OverflowError:
            raise PreconditionError(
                f"gauge threshold ln g = {target:.3g} puts ln k(n) past float "
                f"range (needed for n = {n})") from None
        bracket = _bracket_bisect(lambda u: gauge.log_g(u) < target, lo, hi,
                                  COUNTEREXAMPLE_SEARCH_CAP, 64)
        if bracket is None:
            raise PreconditionError(
                f"gauge never reaches ln g = {target:.3g} within the search "
                f"horizon (needed for n = {n})")
        lk = bracket[1]
        if lk < math.log(INTEGER_EXACT_LIMIT):
            k_int = max(int(math.ceil(math.exp(lk) - 1e-9)), n)
            if i and logk[i - 1] < math.log(INTEGER_EXACT_LIMIT):
                k_int = max(k_int, int(round(math.exp(logk[i - 1]))) + 1)
            while gauge.log_g(math.log(k_int)) < target:
                k_int += 1
            lk = math.log(k_int)
            integral[i] = True
        logk[i] = lk
        lng[i] = gauge.log_g(lk)
        eps[i] = 0.25 if i == 0 else min(1.0 / n, eps[i - 1]) / 2.0
        prev = lk
    loglam = logk + np.log1p(0.5 * np.exp(-np.clip(logk, None, 700.0)))
    model = DiagonalOperatorModel(loglam=loglam, logk=logk, eps=eps,
                                  log_g_at_k=lng, integral_k=integral)
    with mp.workdps(MP_DPS):
        logc = []
        for i in range(n_terms):
            k = mp.exp(mp.mpf(float(logk[i])))
            logc.append(-(k + 1 - mp.mpf(float(eps[i]))) * mp.mpf(float(lng[i])))
    return model, SpectralVector(tuple(logc))


# ---------------------------------------------------------------------------
# spectral sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralSumReport:
    log_partial_sum: object        # mpf
    term_logs: tuple               # mpf per n
    converged: bool                # tail log-ratio <= -ln 2 on the last quartile
    max_tail_log_ratio: object     # mpf
    diverged_from: Optional[int]   # 1-based index past which all terms >= 1
    t: float

    @property
    def certificate(self) -> str:
        if self.converged:
            return "converged"
        if self.diverged_from is not None:
            return "diverged"
        return "inconclusive"


def _ratio(a, b):
    """Successive log-ratio b - a with -inf terms treated as fully decayed."""
    if b == -mp.inf:
        return mp.mpf(-mp.inf)
    if a == -mp.inf:
        return mp.mpf(+mp.inf)
    return b - a


def _certify(term_logs, t: float) -> SpectralSumReport:
    n = len(term_logs)
    q = max(2, (3 * n) // 4)
    tail_ratios = [_ratio(term_logs[i], term_logs[i + 1]) for i in range(q - 1, n - 1)]
    max_ratio = max(tail_ratios) if tail_ratios else mp.mpf(-mp.inf)
    converged = bool(max_ratio <= -mp.log(2) + mp.mpf("1e-12"))
    start = n  # 0-based start of the run of terms >= 1 that ends the list
    while start > 0 and term_logs[start - 1] >= 0:
        start -= 1
    diverged_from = start + 1 if start < n - 1 and not converged else None
    return SpectralSumReport(
        log_partial_sum=_lse(list(term_logs)),
        term_logs=tuple(term_logs),
        converged=converged,
        max_tail_log_ratio=max_ratio,
        diverged_from=diverged_from,
        t=t)


def exponential_class_sum(model: DiagonalOperatorModel, f: SpectralVector,
                          t: float) -> SpectralSumReport:
    """sum_n |c_n|^2 e^(2 t lambda_n) in log domain with a tail certificate."""
    _require_finite("exponential_class_sum", t)
    if t < 0:
        raise InvalidSequenceError("t must be >= 0")
    if f.n_terms != model.n_terms:
        raise InvalidSequenceError("vector/model size mismatch")
    with mp.workdps(MP_DPS):
        tt = mp.mpf(t)
        lams = model.lambdas_mp()
        terms = [2 * f.logc[i] + 2 * tt * lams[i] for i in range(model.n_terms)]
        return _certify(terms, t)


def weighted_class_sum(model: DiagonalOperatorModel, f: SpectralVector,
                       M: WeightSequence, t: float) -> SpectralSumReport:
    """sum_n |c_n|^2 e^(2 omega_M(t lambda_n)) with per-term certificates.

    The weight of a closed-form sequence is evaluated through the step
    search of omega_mp, which stays trusted at arbitrarily large arguments;
    other sequences are accepted only while t*lambda_n stays inside their
    trusted range.
    """
    _require_finite("weighted_class_sum", t)
    if t <= 0:
        raise InvalidSequenceError("t must be > 0")
    if f.n_terms != model.n_terms:
        raise InvalidSequenceError("vector/model size mismatch")
    log_t = math.log(t)
    with mp.workdps(MP_DPS):
        terms = []
        for i in range(model.n_terms):
            log_arg = log_t + float(model.loglam[i])
            if isinstance(M.generator, ClosedForm):
                w = omega_mp(M, log_arg)
            else:
                res = (omega(M, math.exp(log_arg))
                       if log_arg < LOG_FLOAT_MAX else None)
                if res is None or not res.trusted:
                    raise UntrustedEvaluationError(
                        f"omega of {M.name} untrusted at ln(t*lambda)={log_arg:.3g}; "
                        f"enlarge P beyond {M.P} or provide a closed form",
                        required_P=4 * M.P)
                w = mp.mpf(res.value)
            terms.append(2 * f.logc[i] + 2 * w)
        return _certify(terms, t)


@dataclass(frozen=True)
class MembershipVerdict:
    status: str           # holds | fails | inconclusive
    mode: str
    per_t: dict           # t -> certificate string


def membership_verdict(model: DiagonalOperatorModel, f: SpectralVector,
                       M: WeightSequence, mode: str,
                       t_grid: Sequence[float]) -> MembershipVerdict:
    """Class membership against the weight of M over a grid of scalings.

    Roumieu asks for some t with a converged sum, Beurling for all t.
    Mixed certificates stay inconclusive.
    """
    if mode not in ("roumieu", "beurling"):
        raise InvalidSequenceError("mode must be roumieu or beurling")
    per_t = {}
    for t in t_grid:
        per_t[float(t)] = weighted_class_sum(model, f, M, float(t)).certificate
    if not per_t:
        raise InvalidSequenceError("membership_verdict: empty t grid")
    certs = list(per_t.values())
    some, every = (any, all) if mode == "roumieu" else (all, any)
    if some(c == "converged" for c in certs):
        status = "holds"
    elif every(c == "diverged" for c in certs):
        status = "fails"
    else:
        status = "inconclusive"
    return MembershipVerdict(status=status, mode=mode, per_t=per_t)


# ---------------------------------------------------------------------------
# bounded-case solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundedSolutionReport:
    max_rel_err: float        # worst ||y^(n)(t)|| vs ||A^n y(t)|| mismatch
    exp_type_constant: float  # max |lambda|
    exp_type_margin: float    # max over grid of ||y(z)|| / (||y0|| e^(C|z|))


BOUNDED_N_MAX = 12
BOUNDED_GRID_POINTS = 100
BOUNDED_DISC_RADIUS = 3.0


def bounded_solution_check(eigs, y0, t: float,
                           seed: int = 0) -> BoundedSolutionReport:
    """Flow y(t) = e^(tA) y0 of a finite diagonal A.

    Derivatives of order up to BOUNDED_N_MAX are computed two ways:
    componentwise lambda^n e^(lambda t) y0 and by n-fold application of A
    to y(t); the norms must agree.  The exponential-type bound
    ||y(z)|| <= ||y0|| e^(C|z|) with C = max|lambda| is sampled at
    BOUNDED_GRID_POINTS random points of a complex disc of radius
    BOUNDED_DISC_RADIUS.  Inputs whose squared norms would overflow a float
    are refused.
    """
    lam = np.asarray(eigs, dtype=float)
    y0 = np.asarray(y0, dtype=complex)
    if lam.size != y0.size or lam.size == 0:
        raise InvalidSequenceError("eigenvalue/vector size mismatch")
    if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(y0)) and math.isfinite(t)):
        raise InvalidSequenceError("eigenvalues, vector and t must be finite")
    C = float(np.max(np.abs(lam)))
    # the largest intermediate is |lambda^n e^(lambda z) y0|^2 summed, with
    # n <= BOUNDED_N_MAX and |z| <= max(|t|, BOUNDED_DISC_RADIUS)
    log_peak = (C * max(abs(t), BOUNDED_DISC_RADIUS)
                + BOUNDED_N_MAX * math.log(max(C, 1.0))
                + math.log(max(float(np.max(np.abs(y0))), 1.0)))
    if 2 * log_peak + math.log(lam.size) >= LOG_FLOAT_MAX:
        raise InvalidSequenceError(
            f"bounded solution: squared norms would reach e^{2 * log_peak:.6g}, "
            f"past float range (max|lambda| = {C:.6g}, t = {t:g})")
    ny0 = np.linalg.norm(y0)
    if ny0 == 0.0:
        raise InvalidSequenceError("bounded solution: y0 has norm 0 (or below float range)")
    yt = np.exp(lam * t) * y0
    worst = 0.0
    v = yt.copy()
    for n in range(0, BOUNDED_N_MAX + 1):
        direct = np.linalg.norm(lam**n * yt)
        iterated = np.linalg.norm(v)
        denom = max(direct, iterated, 1e-300)
        worst = max(worst, abs(direct - iterated) / denom)
        v = lam * v
    rng = np.random.default_rng(seed)
    radii = rng.uniform(0.05, BOUNDED_DISC_RADIUS, BOUNDED_GRID_POINTS)
    angles = rng.uniform(0.0, 2.0 * math.pi, BOUNDED_GRID_POINTS)
    zs = radii * np.exp(1j * angles)
    margin = 0.0
    for z in zs:
        yz = np.exp(lam * z) * y0
        bound = ny0 * math.exp(C * abs(z))
        margin = max(margin, np.linalg.norm(yz) / bound)
    return BoundedSolutionReport(max_rel_err=float(worst),
                                 exp_type_constant=C,
                                 exp_type_margin=float(margin))


# ---------------------------------------------------------------------------
# the ring demonstration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RingDemonstration:
    """Ring counterexample with its sums: ``exponential`` by t, ``weighted``
    by (member name, t), members outer and t inner as the reports list them."""

    model: DiagonalOperatorModel
    vec: SpectralVector
    exponential: dict
    weighted: dict


def ring_demonstration(n_terms: int, minimal_k: bool = False) -> RingDemonstration:
    """Rings on the Markin-bound gauge of the members, summed over T_EXP and
    T_WEIGHTED; ``minimal_k`` drops the overshoot for g(k(n)) >= n exactly."""
    members = [gevrey(a) for a in RING_ORDERS]
    gauge = build_gauge(markin_bound(RING_BOUND_P), members)
    floor, slope = (0.0, 0.0) if minimal_k else RING_LOG_G_FLOOR_SLOPE
    model, vec = build_counterexample(gauge, n_terms, floor, slope)
    exponential = {t: exponential_class_sum(model, vec, t) for t in T_EXP}
    weighted = {(M.name, t): weighted_class_sum(model, vec, M, t)
                for M in members for t in T_WEIGHTED}
    return RingDemonstration(model, vec, exponential, weighted)
