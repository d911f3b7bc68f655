"""Sequence-to-sequence constructions.

conjugate          M*_p = p!/M_p, the involution exchanging large and small
                   sequences (fixed point: Gevrey order 1/2).
dual               D with quotients delta_{p+1} = Sigma_N(p), the count of
                   quotients of N not exceeding p.
bidual             dual of the dual; recovers the input up to equivalence.
regularize_almost_decreasing
                   replaces quotients mu by lambda_p = H^{-1} p sup_{q>=p} mu_q/q
                   so that lambda_p/p is non-increasing.
normalize_head     flattens an initial dip of the quotients to 1, making the
                   sequence normalized without changing its tail.
log_convex_minorant
                   lower convex hull of p -> ln M_p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (CensoredWindowError, InconclusiveTailError,
                     PreconditionError)
from .seqcore import (ClosedForm, WeightSequence, _factorial_image, _integer,
                      from_quotients, in_lc_window, is_log_convex, quotients)

# default ceiling for materialised dual windows (entries, not values)
DUAL_WINDOW_CAP = 200_000
# window doublings regularize_almost_decreasing tries before it gives up
REGULARIZE_DOUBLINGS = 8
# entries _counted_logs snaps at a time
_BLOCK = 1 << 16


def conjugate(M: WeightSequence) -> WeightSequence:
    """Conjugate sequence M*_p = p!/M_p (log domain: ln p! - logM[p])."""
    return _factorial_image(M, 1.0, -1.0, f"conj[{M.name}]",
                            f"transform:conjugate({M.provenance})")


# ---------------------------------------------------------------------------
# dual / bidual
# ---------------------------------------------------------------------------

def _counted_logs(values: np.ndarray, P_out: int) -> np.ndarray:
    """ln K_0..ln K_P_out of the sequence whose quotients count ``values``.

    kappa_{p+1} = max(Sigma(p), 1) for p >= values[0], kappa_{p+1} = 1 below
    it and kappa_0 = kappa_1 = 1, where Sigma(p) = #{j >= 1 : v_j <= p} for
    the non-decreasing values v_1, v_2, ...  Ties are counted inclusively.
    Quotients that are integers in exact arithmetic (Gevrey order 1, dual
    sequences) come back from the log domain with last-bit noise, so values
    within relative 1e-9 of an integer are snapped before counting.
    """
    # an infinite value exceeds every count: its inf - inf is NaN, which
    # fails the snap test and keeps the inf.  Snapped in blocks, and kappa
    # formed in place: bidual's two counts run over 4e6 entries, where each
    # full-length temporary is 32 MB.
    snapped = np.empty_like(values)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, values.size, _BLOCK):
            v = values[i : i + _BLOCK]
            nearest = np.rint(v)
            snapped[i : i + _BLOCK] = np.where(
                np.abs(v - nearest) <= 1e-9 * np.maximum(1.0, np.abs(nearest)),
                nearest, v)
    ps = np.arange(1, P_out, dtype=float)  # p = 1..P_out-1 feeds kappa_{p+1}
    active = ps >= values[0]
    counts = np.searchsorted(snapped, ps, side="right")[active]
    del ps, snapped
    np.maximum(counts, 1, out=counts)
    counts = counts.astype(float)
    np.log(counts, out=counts)
    logK = np.zeros(P_out + 1)
    logK[2:][active] = counts
    del counts
    np.cumsum(logK[1:], out=logK[1:])
    return logK


def _counting_range(N: WeightSequence) -> int:
    """floor(nu_P) capped at 2^62: the largest p whose count Sigma_N(p) the
    window resolves; a last quotient past float range reads as the cap."""
    with np.errstate(over="ignore"):
        # the last entry of quotients(N), without building the whole view
        nu_max = np.exp(N.logM[-1] - N.logM[-2])
    return int(min(nu_max, 2**62)) if math.isfinite(nu_max) else 2**62


def dual(N: WeightSequence, P_out: int | None = None) -> WeightSequence:
    """Dual sequence of N defined through its quotients.

    delta_{p+1} = Sigma_N(p) for p >= nu_1 and delta_{p+1} = 1 for integer
    p with -1 <= p < nu_1; D_p is the product of the deltas.  The output
    window stays inside N's counting range, so every count uses only
    quotients whose values fit inside N's window (no truncation censoring).
    """
    if not in_lc_window(N):
        raise PreconditionError(
            f"dual: {N.name} is not normalized and log-convex with diverging "
            "quotients on its window")
    hard_cap = _counting_range(N)
    if P_out is None:
        P_out = min(hard_cap, DUAL_WINDOW_CAP)
    P_out = _integer(P_out, "dual: window length P_out", 0)
    if P_out > hard_cap:
        raise CensoredWindowError(
            f"dual: requested window {P_out} exceeds counting range "
            f"(largest usable p = {hard_cap}); enlarge {N.name}'s window",
            required_P=P_out)
    if P_out < 8:
        raise CensoredWindowError(
            f"dual: counting range of {N.name} supports only p <= {P_out}; "
            "enlarge the input window", required_P=P_out)
    # nu_1..nu_P, non-decreasing; a quotient past float range is inf, which
    # exceeds every count, as it should
    with np.errstate(over="ignore"):
        nu = np.exp(quotients(N)[1:])
    return WeightSequence(f"dual[{N.name}]", _counted_logs(nu, P_out),
                          provenance=f"transform:dual({N.provenance})")


def bidual(N: WeightSequence, P_out: int | None = None) -> WeightSequence:
    """Dual applied twice: dual(dual(N)) on 0..P_out, under its own name.

    The inner dual's quotients must pass P_out: delta_j = Sigma_N(j-1) >
    P_out needs j - 1 > nu_{P_out+1}, so the inner window is P_inner =
    floor(nu_{P_out+1}) + 2.  N's window is doubled through its generator
    until its counting range covers P_inner.
    """
    P_out = min(N.P, 2000) if P_out is None else _integer(
        P_out, "bidual: window length P_out", 0)
    M = N.extended(P_out + 1)
    lim = quotients(M)[P_out + 1]
    if lim > math.log(50_000_000):
        raise CensoredWindowError(
            f"bidual: inner dual window would need ~e^{lim:.1f} entries")
    P_inner = int(math.floor(math.exp(lim))) + 2
    for _ in range(24):
        if _counting_range(M) >= P_inner:
            break
        if M.generator is None:
            raise CensoredWindowError(
                f"bidual: counting range of {M.name} stops below {P_inner}",
                required_P=2 * M.P)
        M = M.extended(2 * M.P)
    E = dual(dual(M, P_out=P_inner), P_out=P_out)
    return WeightSequence(f"bidual[{N.name}]", E.logM,
                          provenance=f"transform:bidual({N.provenance})")


# ---------------------------------------------------------------------------
# almost-decreasing regularization and head normalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularizationResult:
    L: WeightSequence
    H: float                # window value; lower bound for the true constant


def _tail_sup_resolvable(ratio: np.ndarray) -> bool:
    """Certify that sup_{q>=p} mu_q/q is determined by the window.

    True when the running envelope over the last half of the window decays:
    the maxima over 8 consecutive blocks must be non-increasing.
    """
    tail = ratio[len(ratio) // 2:]
    blocks = np.array_split(tail, 8)
    maxima = [b.max() for b in blocks if b.size]
    return all(maxima[i] >= maxima[i + 1] - 1e-12 for i in range(len(maxima) - 1))


def regularize_almost_decreasing(M: WeightSequence) -> RegularizationResult:
    """Replace quotients mu by lambda_p = H^{-1} p sup_{q>=p} mu_q/q.

    The output satisfies lambda_p/p non-increasing and
    H^{-1} mu_p <= lambda_p <= mu_p pointwise on the window; lambda_0 = 1.
    H is computed on the window and reported as a lower bound for the true
    asymptotic constant.  A window whose tail sup of mu_q/q is unresolved
    is doubled, up to REGULARIZE_DOUBLINGS times, through its generator,
    unless that generator is a ClosedForm whose mu_q/q tends to infinity
    (b > 0, or b = 0 < a - 1): no window resolves a sup that is infinite,
    so that tail is refused at once.
    """
    work = M
    for attempt in range(REGULARIZE_DOUBLINGS + 1):
        logmu = quotients(work)
        p = np.arange(1, work.P + 1, dtype=float)
        log_ratio = logmu[1:] - np.log(p)     # ln(mu_q / q)
        if _tail_sup_resolvable(log_ratio):
            break
        refusal = (f"regularize: tail sup of mu_q/q unresolved within window "
                   f"of {M.name}")
        form = work.generator
        if isinstance(form, ClosedForm) and (form.b > 0 or form.b == 0 < form.a - 1):
            raise InconclusiveTailError(
                f"{refusal}; mu_q/q of its closed form tends to infinity")
        if form is None or attempt == REGULARIZE_DOUBLINGS:
            raise InconclusiveTailError(refusal)
        work = work.extended(work.P * 2)
    # running sup from the right of ln(mu_q/q)
    log_sup = np.maximum.accumulate(log_ratio[::-1])[::-1]
    # H = sup_{p<=q} (mu_q/q) / (mu_p/p)
    running_min = np.minimum.accumulate(log_ratio)
    logH = float(np.max(log_sup - running_min))
    logH = max(logH, 0.0)
    loglam = np.empty(work.P + 1)
    loglam[0] = 0.0
    loglam[1:] = np.log(p) + log_sup - logH
    L = from_quotients(loglam, name=f"reg[{M.name}]")
    L = WeightSequence(L.name, L.logM,
                       provenance=f"transform:regularize({M.provenance})")
    return RegularizationResult(L=L, H=float(math.exp(logH)))


@dataclass(frozen=True)
class HeadNormalization:
    L: WeightSequence
    p0: int        # last index whose quotient was forced to 1
    log_c: float   # L <= Lnorm <= c L with c = prod_{p<=p0} max(1, 1/lambda_p)


def normalize_head(L: WeightSequence) -> HeadNormalization:
    """Force an initial run of quotients to 1 so that 1 = L_0 = L_1.

    Requires log-convex input whose quotients eventually reach 1 inside the
    window.  p0 is the minimal index with lambda_p >= 1 for all p > p0; the
    result keeps the tail unchanged and satisfies L <= Lnorm <= c L.
    """
    if not is_log_convex(L):
        raise PreconditionError("normalize_head: input is not log-convex")
    loglam = quotients(L)
    if loglam[1] >= 0.0:
        # already normalized: no modification required
        out = WeightSequence(L.name, L.logM, L.generator,
                             provenance=f"transform:normalize_head({L.provenance})")
        return HeadNormalization(L=out, p0=0, log_c=0.0)
    below = np.flatnonzero(loglam < 0.0)
    p0 = int(below[-1])
    if p0 >= L.P:
        raise PreconditionError(
            "normalize_head: quotients never reach 1 inside the window")
    newlog = loglam.copy()
    newlog[: p0 + 1] = 0.0
    log_c = float(-np.sum(np.minimum(loglam[1 : p0 + 1], 0.0)))
    out = from_quotients(newlog, name=f"norm[{L.name}]")
    out = WeightSequence(out.name, out.logM,
                         provenance=f"transform:normalize_head({L.provenance})")
    return HeadNormalization(L=out, p0=p0, log_c=log_c)


# ---------------------------------------------------------------------------
# log-convex minorant
# ---------------------------------------------------------------------------

def log_convex_minorant(M: WeightSequence) -> WeightSequence:
    """Lower convex hull of the points (p, ln M_p), evaluated at 0..P.

    Monotone-chain construction; collinear points are harmless.  The output
    is pointwise <= M, log-convex, and equals M wherever M already is.
    """
    y = M.logM
    n = y.size
    hull = []  # indices of lower-hull vertices
    for i in range(n):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            # pop i1 if it lies on or above the chord i0 -> i
            if (y[i1] - y[i0]) * (i - i0) >= (y[i] - y[i0]) * (i1 - i0):
                hull.pop()
            else:
                break
        hull.append(i)
    hx = np.array(hull, dtype=float)
    hy = y[hull]
    out = np.interp(np.arange(n, dtype=float), hx, hy)
    out = np.minimum(out, y)  # guard interpolation round-off
    return WeightSequence(f"lcm[{M.name}]", out,
                          provenance=f"transform:log_convex_minorant({M.provenance})")
