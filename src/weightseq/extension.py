"""Quantitative extension and restriction bounds for entire functions.

A smooth function with derivative bounds A h^k M_k extends to an entire
function whose modulus is controlled by the associated weight of the
conjugate sequence:

    A sum_k (h|z|)^k / M*_k  <=  2 A exp(omega_{M*}(2h|z|)),

and conversely an entire function with |F(z)| <= A exp(omega_{M*}(k|z|))
has derivative bounds ||F^(n)(x)|| <= A (2k)^n M_n via Cauchy estimates at
the radius r in [mu*_n/(2k), mu*_{n+1}/(2k)), valid once mu*_n/(2k) covers
the evaluation interval.  Coefficient functions are handled radially:
sup_{|z|=t} |F| is replaced by sum_k |b_k| t^k, which is exact for
nonnegative coefficients and an upper bound otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analysis import _exp_reported, _math_exp
from .errors import (CensoredWindowError, InvalidSequenceError,
                     UntrustedEvaluationError)
from .seqcore import (WeightSequence, _integer, log_factorial, log_factorials,
                      quotients)
from .weights import _require_finite, _window_omega, omega

NEG_INF = -np.inf


def _lse(v: np.ndarray) -> float:
    """ln sum_k e^(v_k) as m + ln sum_k e^(v_k - m), m = max v; -inf for an
    empty or all -inf v."""
    m = float(v.max()) if v.size else NEG_INF
    if m == NEG_INF:
        return NEG_INF
    return m + math.log(float(np.sum(np.exp(v - m))))


@dataclass(frozen=True)
class CoefficientFunction:
    """F(z) = sum_k b_k z^k given through logc[k] = ln|b_k| (-inf allowed)."""

    logc: np.ndarray
    signs: Optional[np.ndarray] = None

    def __post_init__(self):
        arr = np.asarray(self.logc, dtype=float)
        if arr.size < 9:
            raise InvalidSequenceError("coefficient truncation too short: need K >= 8")
        if np.any(np.isnan(arr)) or np.any(arr == np.inf):
            raise InvalidSequenceError("logc entries must be finite or -inf")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "logc", arr)
        if self.signs is not None:
            s = np.asarray(self.signs, dtype=float)
            if s.shape != arr.shape or not np.all(np.isin(s, (-1.0, 1.0))):
                raise InvalidSequenceError("signs must be +-1 and match logc")
            object.__setattr__(self, "signs", s)

    @property
    def K(self) -> int:
        return self.logc.size - 1

    @classmethod
    def reciprocal(cls, M: WeightSequence) -> "CoefficientFunction":
        """b_k = 1/M_k; against the weight of M these give norm-1-ish fixtures."""
        return cls(logc=-M.logM)

    def log_radial_majorant(self, t: float) -> float:
        """ln sum_k |b_k| t^k by log-sum-exp."""
        if not (0 <= t < math.inf):
            raise InvalidSequenceError(f"radius must be finite and >= 0, got {t}")
        if t == 0.0:
            return float(self.logc[0])
        k = np.arange(self.K + 1, dtype=float)
        return _lse(self.logc + k * math.log(t))

    def derivative_log_abs(self, n: int, x: float) -> float:
        """ln |F^(n)(x)| exactly from the coefficients.

        F^(n)(x) = sum_{j>=n} b_j j!/(j-n)! x^(j-n); positive and negative
        contributions are accumulated separately in log domain.
        """
        if not math.isfinite(x):
            raise InvalidSequenceError(f"derivative point x must be finite, got {x}")
        n = _integer(n, "derivative order n", 0)
        if n > self.K:
            return NEG_INF
        j = np.arange(n, self.K + 1, dtype=float)
        lnfact = log_factorials(self.K)  # ln j!/(j-n)! = lnfact[j] - lnfact[j-n]
        logterm = self.logc[n:] + lnfact[n:] - lnfact[: self.K - n + 1]
        if x == 0.0:
            return float(logterm[0])
        logterm = logterm + (j - n) * math.log(abs(x))
        sgn = np.ones_like(logterm)
        if self.signs is not None:
            sgn = self.signs[n:].copy()
        if x < 0:
            sgn = sgn * np.where((j - n) % 2 == 0, 1.0, -1.0)
        finite = logterm > NEG_INF
        logterm, sgn = logterm[finite], sgn[finite]
        pos = _lse(logterm[sgn > 0])
        neg = _lse(logterm[sgn < 0])
        if neg == NEG_INF:
            return pos
        if pos == NEG_INF:
            return neg
        hi, lo = max(pos, neg), min(pos, neg)
        diff = 1.0 - math.exp(lo - hi)
        if diff <= 0.0:
            return NEG_INF
        return hi + math.log(diff)


# ---------------------------------------------------------------------------
# forward bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MajorantPair:
    lhs: float
    rhs: float
    log_lhs: float
    log_rhs: float


def taylor_majorant(M: WeightSequence, h: float, A: float,
                    z_abs: float) -> MajorantPair:
    """Both sides of the extension growth bound at |z| = z_abs:

    lhs = A sum_k (h |z|)^k M_k / k!,  rhs = 2 A exp(omega_{M*}(2 h |z|)).
    """
    if not (h > 0 and 0 < A < math.inf and z_abs >= 0):
        raise InvalidSequenceError("need h > 0, finite A > 0, z_abs >= 0")
    t = 2.0 * h * z_abs
    _require_finite("taylor_majorant", t, "2 h |z|")
    logMstar = log_factorials(M.P) - M.logM  # as conjugate(M)
    w = _window_omega(logMstar, t)
    if not w.trusted:
        raise UntrustedEvaluationError(
            f"conjugate weight untrusted at {t:g}; enlarge P beyond {M.P}",
            required_P=2 * M.P)
    k = np.arange(M.P + 1, dtype=float)
    if z_abs == 0.0:
        log_lhs = math.log(A)
    else:
        hz = h * z_abs
        # a product that underflows to 0 still has a log: the sum of the two
        log_hz = math.log(hz) if hz > 0.0 else math.log(h) + math.log(z_abs)
        terms = k * log_hz - logMstar  # (h z)^k M_k / k!
        peak = int(np.argmax(terms))
        if peak >= M.P:
            raise UntrustedEvaluationError(
                f"majorant series peak at truncation (k={peak}); enlarge P",
                required_P=2 * M.P)
        m = float(terms.max())
        keep = terms > m + math.log(1e-18)
        log_lhs = math.log(A) + m + math.log(float(np.sum(np.exp(terms[keep] - m))))
    log_rhs = math.log(2.0 * A) + w.value
    return MajorantPair(lhs=_exp_reported(log_lhs),
                        rhs=_exp_reported(log_rhs),
                        log_lhs=log_lhs, log_rhs=log_rhs)


# ---------------------------------------------------------------------------
# restriction bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RestrictionBound:
    log_deriv: float     # ln ||F^(n)(x)||
    log_bound: float     # ln of A (2k)^n M_n, times C on the exception route
    route: str           # "main" | "finite-exception"
    n0: int              # number of exceptional derivative orders
    log_C: float         # exception constant (0 on the main route)


def cauchy_restriction_bound(F: CoefficientFunction, Mstar: WeightSequence,
                             A: float, k: float, x: float,
                             n: int) -> RestrictionBound:
    """Derivative bound for F under the growth certificate
    |F(z)| <= A exp(omega_{Mstar}(k|z|)).

    The certificate is verified (not assumed) through the radial majorant at
    the Cauchy radius actually used.  M is recovered from the conjugate:
    M_n = n!/M*_n.
    """
    n = _integer(n, "cauchy restriction: derivative order n", 0)
    if not (0 < A < math.inf and 0 < k < math.inf):
        raise InvalidSequenceError(f"need finite A > 0, k > 0, got A={A}, k={k}")
    if n + 1 > Mstar.P:
        raise CensoredWindowError(f"n={n} outside conjugate window", required_P=n + 1)
    logmu_star = quotients(Mstar)
    R = max(abs(x), 1.0)
    mu_n = _math_exp(logmu_star[n]) if n >= 1 else 1.0
    r = mu_n / (2.0 * k)
    # a ratio past float range reads inf: that order is no exception
    with np.errstate(over="ignore"):
        n_exc = np.flatnonzero(np.exp(logmu_star[1:]) / (2.0 * k) < 2.0 * R)
    n0 = int(n_exc.size)
    route = "main" if (n >= 1 and r >= 2.0 * R) else "finite-exception"
    if route == "finite-exception":
        r = 2.0 * R
    _require_finite("cauchy_restriction_bound", r, f"Cauchy radius mu*_{n} / (2k)")
    # growth certificate on the circle |z| = |x| + r (radial majorant)
    circle = abs(x) + r
    maj = F.log_radial_majorant(circle)
    w_circle = omega(Mstar, k * circle)
    if not w_circle.trusted:
        raise UntrustedEvaluationError(
            f"omega untrusted at {k*circle:g}; enlarge conjugate window",
            required_P=2 * Mstar.P)
    if maj > math.log(A) + w_circle.value + 1e-9:
        raise InvalidSequenceError(
            "growth certificate fails on the sampled circle: "
            f"ln majorant {maj:.6g} > ln A + omega {math.log(A)+w_circle.value:.6g}")
    log_deriv = F.derivative_log_abs(n, x)
    logM_n = log_factorial(n) - float(Mstar.logM[n])
    log_bound = math.log(A) + n * math.log(2.0 * k) + logM_n
    log_C = 0.0
    if route == "finite-exception":
        w_R = omega(Mstar, 2.0 * k * R)
        if not w_R.trusted:
            raise UntrustedEvaluationError("omega untrusted at exception radius")
        log_C = log_factorial(n0) + w_R.value
        log_bound += log_C
    return RestrictionBound(log_deriv=float(log_deriv), log_bound=float(log_bound),
                            route=route, n0=n0, log_C=float(log_C))


# ---------------------------------------------------------------------------
# weighted sup-norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightedNorm:
    value: float
    log_value: float
    at_t: float
    boundary: bool   # sup attained at an end of the grid


def weighted_sup_norm(F: CoefficientFunction, M: WeightSequence, c: float,
                      radius_grid, exponent: float = 1.0) -> WeightedNorm:
    """sup over the grid of (radial majorant of F at t) * exp(-e*omega_M(c t)).

    ``c`` scales the argument of the weight, ``exponent`` powers the weight
    itself.  Untrusted weight evaluations abort rather than silently censor.
    """
    if not (c > 0 and 0 < exponent < math.inf):
        raise InvalidSequenceError("need c > 0 and a finite exponent > 0")
    grid = np.asarray(list(radius_grid), dtype=float)
    if grid.size == 0:
        raise InvalidSequenceError("empty radius grid")
    best, best_t = -np.inf, grid[0]
    for t in grid:
        w = omega(M, c * float(t))
        if not w.trusted:
            raise UntrustedEvaluationError(
                f"omega untrusted at {c*t:g}; enlarge P of {M.name}",
                required_P=2 * M.P)
        val = F.log_radial_majorant(float(t)) - exponent * w.value
        if val > best:
            best, best_t = val, float(t)
    boundary = bool(best_t == grid[0] or best_t == grid[-1])
    return WeightedNorm(value=_exp_reported(best), log_value=float(best),
                        at_t=best_t, boundary=boundary)
