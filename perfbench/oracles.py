"""Reference computations the benchmark checks library outputs against.

Everything here is written from the mathematical definitions with numpy,
scipy.special and the standard library only; nothing calls weightseq, so a
defect in the library cannot hide in its own oracle (and oracle work never
shows up in a trace).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

REL_TOL = 1e-9


def close(a, b, rtol=REL_TOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def arrays_close(a, b, rtol=REL_TOL) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= rtol * (1.0 + np.maximum(np.abs(a), np.abs(b)))))


def lnfact(n: int) -> np.ndarray:
    """ln p! for p = 0..n."""
    return gammaln(np.arange(n + 1, dtype=float) + 1.0)


# ---------------------------------------------------------------------------
# closed-form families: ln M_p and the largest p with mu_p <= t
# ---------------------------------------------------------------------------

class Family:
    """A builtin family member described by its closed form."""

    def __init__(self, kind: str, param: float):
        self.kind = kind
        self.param = float(param)

    @property
    def spec(self) -> str:
        return f"{self.kind}:{self.param!r}"

    def logM(self, P: int) -> np.ndarray:
        p = np.arange(P + 1, dtype=float)
        if self.kind == "gevrey":
            return self.param * gammaln(p + 1.0)
        return p * p * math.log(self.param)

    def logM_at(self, p: int) -> float:
        if self.kind == "gevrey":
            return self.param * math.lgamma(p + 1.0)
        return float(p) * float(p) * math.log(self.param)

    def step_index(self, log_t: float) -> int:
        """Largest p >= 0 with ln mu_p <= ln t (mu_p = p^a or q^(2p-1))."""
        if self.kind == "gevrey":
            p = math.floor(math.exp(log_t / self.param))
            while p >= 1 and self.param * math.log(p) > log_t:
                p -= 1
            while self.param * math.log(p + 1) <= log_t:
                p += 1
            return p
        lq = math.log(self.param)
        p = math.floor((log_t / lq + 1.0) / 2.0)
        return max(p, 0)


# ---------------------------------------------------------------------------
# associated weight, counting function
# ---------------------------------------------------------------------------

class WindowRef:
    """Oracle for the window primitives of one stored sequence.

    For log-convex M the supremum omega_M(t) = sup_p (p ln t - ln M_p) is
    attained at the largest p with mu_p <= t; the oracle uses that step
    structure (a binary search), not the library's scan.
    """

    def __init__(self, logM: np.ndarray):
        self.logM = np.asarray(logM, dtype=float)
        self.P = self.logM.size - 1
        self.logmu = np.diff(self.logM)          # ln mu_1 .. ln mu_P
        if np.any(np.diff(self.logmu) < 0):
            raise ValueError("window oracle needs a log-convex fixture")

    def sigma(self, log_t: float) -> int:
        """#{p >= 1 : mu_p <= t}."""
        return int(np.searchsorted(self.logmu, log_t, side="right"))

    def term(self, p: int, log_t: float) -> float:
        return p * log_t - float(self.logM[p])

    def omega(self, t: float):
        """(value, step index, trusted) of omega_M(t) on the window."""
        if t == 0.0:
            return 0.0, 0, True
        log_t = math.log(t)
        k = self.sigma(log_t)
        return max(self.term(k, log_t), 0.0), k, k < self.P

    def argmax_ok(self, t: float, argmax: int, value: float) -> bool:
        """argmax attains the supremum (to rounding), or is 0 when it is <= 0."""
        if value <= 0.0:
            return argmax == 0
        return 0 <= argmax <= self.P and close(self.term(argmax, math.log(t)), value)

    def counting(self, t: float):
        """Sigma_M(t), or None when t exceeds mu_P (censored by the window)."""
        log_t = math.log(t) if t > 0 else -math.inf
        if log_t > self.logmu[-1]:
            return None
        return self.sigma(log_t)


def omega_extended_ref(fam: Family, t: float):
    """(value, step index) of the untruncated omega via the closed form."""
    log_t = math.log(t)
    k = fam.step_index(log_t)
    return max(k * log_t - fam.logM_at(k), 0.0), k


def taylor_ref(logMstar: np.ndarray, h: float, A: float, z: float):
    """Both sides of A sum_k (h z)^k M_k/k! <= 2A exp(omega_{M*}(2 h z)),
    given ln M*_k = ln k! - ln M_k, or None when the window cannot certify
    them (the library must refuse)."""
    P = logMstar.size - 1
    k = np.arange(P + 1, dtype=float)
    terms_w = k * math.log(2.0 * h * z) - logMstar
    best = float(terms_w.max())
    last = int(np.flatnonzero(terms_w >= best - 1e-12 * max(1.0, abs(best)))[-1])
    if last >= P:
        return None
    terms = k * math.log(h * z) - logMstar
    if int(np.argmax(terms)) >= P:
        return None
    m = float(terms.max())
    log_lhs = math.log(A) + m + math.log(float(np.sum(np.exp(terms - m))))
    log_rhs = math.log(2.0 * A) + max(best, 0.0)
    return log_lhs, log_rhs


# ---------------------------------------------------------------------------
# sequence transforms
# ---------------------------------------------------------------------------

DUAL_WINDOW_CAP = 200_000


def _snap(v: np.ndarray) -> np.ndarray:
    """Quotients within relative 1e-9 of an integer count as that integer
    (the library's documented tie rule for integer-valued quotients)."""
    r = np.rint(v)
    return np.where(np.abs(v - r) <= 1e-9 * np.maximum(1.0, np.abs(r)), r, v)


def _count_leq(sorted_values: np.ndarray, xs: np.ndarray) -> np.ndarray:
    return np.searchsorted(sorted_values, xs, side="right")


def _dual_quotients(nu: np.ndarray, n_out: int) -> np.ndarray:
    """delta_1..delta_{n_out}: delta_{p+1} = Sigma_N(p) for p >= nu_1, else 1."""
    nu = _snap(nu)
    pm1 = np.arange(0, n_out, dtype=float)  # p = j - 1 for j = 1..n_out
    counts = np.maximum(_count_leq(nu, pm1), 1)
    return np.where(pm1 >= nu[0], counts, 1).astype(float)


def _from_quotients(quot: np.ndarray) -> np.ndarray:
    return np.concatenate([[0.0], np.cumsum(np.log(quot))])


def dual_ref(logM: np.ndarray):
    """ln D_p, or None when the counting range is below 8 entries."""
    nu = np.exp(np.diff(logM))
    hard_cap = int(min(nu[-1], 2**62)) if math.isfinite(nu[-1]) else 2**62
    P_out = min(hard_cap, DUAL_WINDOW_CAP)
    if P_out < 8:
        return None
    return _from_quotients(_dual_quotients(nu, P_out))


def bidual_gevrey_ref(alpha: float, P: int) -> np.ndarray:
    """ln E_p of the bidual of gevrey(alpha) on 0..min(P, 2000).

    Uses nu_i = i^alpha for as many i as the inner dual needs, so no window
    bookkeeping is involved.
    """
    P_out = min(P, 2000)
    J = int(math.ceil((P_out + 1) ** alpha)) + 3
    I = int(math.ceil(J ** (1.0 / alpha))) + 3
    nu = np.exp(alpha * np.log(np.arange(1, I + 1, dtype=float)))
    delta = _dual_quotients(nu, J)
    eps = np.maximum(_count_leq(delta, np.arange(1, P_out, dtype=float)), 1)
    return np.concatenate([[0.0, 0.0], np.cumsum(np.log(eps))])


def lcm_ref(y: np.ndarray) -> np.ndarray:
    """Greatest convex minorant of (p, y_p) via the lower hull (Andrew)."""
    hull = []
    for i, yi in enumerate(y):
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (y1 - y0) * (i - x0) >= (yi - y0) * (x1 - x0):
                hull.pop()
            else:
                break
        hull.append((i, float(yi)))
    hx, hy = zip(*hull)
    return np.minimum(np.interp(np.arange(y.size, dtype=float), hx, hy), y)


def apply_step(step: str, logM: np.ndarray, fam: Family | None):
    """Reference for one transform step; returns (logM, family-or-None) or
    raises KeyError for a step with no reference on this input."""
    P = logM.size - 1
    if step == "conjugate":
        return lnfact(P) - logM, None
    if step == "m":
        return logM - lnfact(P), None
    if step.startswith("shift:"):
        return logM + float(step.split(":", 1)[1]) * lnfact(P), None
    if step == "root":
        return np.concatenate([[0.0], np.cumsum(logM[1:] / np.arange(1, P + 1))]), None
    if step == "lcm":
        return lcm_ref(logM), None
    if step == "dual":
        return dual_ref(logM), None
    if step == "bidual" and fam is not None and fam.kind == "gevrey":
        return bidual_gevrey_ref(fam.param, P), None
    if step == "regularize" and fam is not None and fam.kind == "gevrey" and fam.param < 1:
        # mu_q/q = q^(alpha-1) already decreases: the regularization is exact
        return logM, None
    raise KeyError(step)


# ---------------------------------------------------------------------------
# predicate verdicts known by theory
# ---------------------------------------------------------------------------

def theory_verdicts(fam: Family) -> dict:
    """Statuses the predicates must not contradict for a builtin family.

    Gevrey (p!)^a, a in (0,1) u (1,inf): log-convex, normalized, moderate
    growth, derivation closed; m_p = (p!)^(a-1) is log-concave iff a <= 1;
    beta1 and gamma1 (strong non-quasianalyticity) hold iff a > 1; beta3,
    the quotient-ratio bound, momega1 and om1 hold.  q-Gevrey q^(p^2):
    moderate growth fails, m is log-convex (not log-concave), every other
    listed property holds.
    """
    base = {"lc": "holds", "normalized": "holds", "dc": "holds",
            "beta3": "holds", "quotient-ratio-bound": "holds",
            "momega1": "holds", "om1": "holds"}
    if fam.kind == "gevrey":
        small = fam.param < 1
        base.update({"mg": "holds",
                     "log-concave-m": "holds" if small else "fails",
                     "beta1": "fails" if small else "holds",
                     "gamma1": "fails" if small else "holds"})
    else:
        base.update({"mg": "fails", "log-concave-m": "fails",
                     "beta1": "holds", "gamma1": "holds"})
    return base


def window_verdicts(logM: np.ndarray) -> dict:
    """Window-exact statuses of lc, normalized and log-concave-m."""
    tol = 1e-12
    d = np.diff(np.diff(logM))
    logm = logM - lnfact(logM.size - 1)
    d2 = logm[:-2] + logm[2:] - 2 * logm[1:-1]
    return {"lc": "fails" if np.any(d < -tol) else "holds",
            "normalized": "holds" if abs(logM[0]) <= tol and logM[1] >= -tol else "fails",
            "log-concave-m": "fails" if np.any(d2 > tol) else "holds"}


# ---------------------------------------------------------------------------
# verify all
# ---------------------------------------------------------------------------

# md5 of `weightseq verify all --seed 0 --out ...` at the seed commit; the
# report must stay byte-identical
VERIFY_SEED0_MD5 = "bde513e13a58b24cc0a20aa11dd6c0ed"


def criterion_expected(cid: str, entry: dict):
    """None when a criterion result matches the documented outcome vector,
    else a reason: all criteria pass except 8, which fails at stage 4 of
    the K = 4, P = 5000 construction with CensoredWindowError."""
    if cid != "8":
        return None if entry.get("passed") is True else "expected pass"
    if entry.get("passed") is not False:
        return "criterion 8 must stay red"
    err = entry.get("details", {}).get("construction_K4_P5000", {}).get("error", "")
    if not (err.startswith("CensoredWindowError") and "stage k=4" in err):
        return f"criterion 8 failed differently: {err!r}"
    return None
