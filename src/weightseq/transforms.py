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
                     InvalidSequenceError, PreconditionError)
from .seqcore import (ClosedForm, WeightSequence, _factorial_image, _integer,
                      _window_length, from_quotients, in_lc_window,
                      is_log_convex, quotients)

# ceiling for a materialised window (entries, not values): dual's default
# window and regularize_almost_decreasing's extension to a closed form's peak
WINDOW_CAP = 200_000
# ceiling for any dual's window: an explicit P_out, bidual's inner dual
DUAL_CEILING = 50_000_000


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
    sequences) come back from the log domain with last-bit noise, so v
    counts at p when v <= p*(1 + 1e-9); an infinite value counts nowhere.
    """
    # the active p >= values[0] are a suffix; kappa is formed in place, since
    # bidual's two counts run to 4e6 entries, 32 MB per temporary
    ps = np.arange(1, P_out, dtype=float)  # p = 1..P_out-1 feeds kappa_{p+1}
    first = int(np.searchsorted(ps, values[0]))
    thresholds = ps[first:]
    thresholds *= 1.0 + 1e-9
    counts = np.searchsorted(values, thresholds, side="right")
    del ps, thresholds
    np.maximum(counts, 1, out=counts)
    counts = counts.astype(float)
    np.log(counts, out=counts)
    logK = np.zeros(P_out + 1)
    logK[2 + first:] = counts
    del counts
    np.cumsum(logK[1:], out=logK[1:])
    return logK


def _counting_range(N: WeightSequence, P: int | None = None) -> int:
    """floor(nu_P) capped at 2^62 (inf reads as the cap), P the window's end by
    default: the largest p whose count Sigma_N(p) the window 0..P resolves."""
    P = N.P if P is None else P
    with np.errstate(over="ignore"):
        # one entry of quotients(N), without building the whole view
        nu = np.exp(N.logM[P] - N.logM[P - 1])
    return int(min(nu, 2**62)) if math.isfinite(nu) else 2**62


def dual(N: WeightSequence, P_out: int | None = None) -> WeightSequence:
    """Dual sequence of N defined through its quotients.

    delta_{p+1} = Sigma_N(p) for p >= nu_1 and delta_{p+1} = 1 for integer
    p with -1 <= p < nu_1; D_p is the product of the deltas.  The output
    window stays inside N's counting range, so every count uses only
    quotients whose values fit inside N's window (no truncation censoring),
    and an explicit P_out may not pass DUAL_CEILING.
    """
    if not in_lc_window(N):
        raise PreconditionError(
            f"dual: {N.name} is not normalized and log-convex with diverging "
            "quotients on its window")
    hard_cap = _counting_range(N)
    if P_out is None:
        P_out = min(hard_cap, WINDOW_CAP)
        if P_out < 8:
            raise CensoredWindowError(
                f"dual: counting range of {N.name} supports only p <= {P_out}; "
                "enlarge the input window", required_P=2 * N.P)
    P_out = _integer(P_out, "dual: window length P_out", 8)
    if P_out > DUAL_CEILING:
        raise InvalidSequenceError(
            f"dual: window length P_out = {P_out} exceeds DUAL_CEILING = "
            f"{DUAL_CEILING}")
    if P_out > hard_cap:
        raise CensoredWindowError(
            f"dual: requested window {P_out} exceeds counting range "
            f"(largest usable p = {hard_cap}); enlarge {N.name}'s window",
            required_P=2 * N.P)
    # nu_1..nu_P, non-decreasing; a quotient past float range is inf, which
    # exceeds every count, as it should
    nu = np.diff(N.logM)
    with np.errstate(over="ignore"):
        np.exp(nu, out=nu)
    return WeightSequence(f"dual[{N.name}]", _counted_logs(nu, P_out),
                          provenance=f"transform:dual({N.provenance})")


def bidual(N: WeightSequence, P_out: int | None = None) -> WeightSequence:
    """Dual applied twice: dual(dual(N)) on 0..P_out, under its own name.

    The inner dual's quotients must pass P_out: delta_j = Sigma_N(j-1) >
    P_out needs j - 1 > nu_{P_out+1}, so the inner window is P_inner =
    floor(nu_{P_out+1}) + 2, at least 8, refused past DUAL_CEILING.  N's
    window is doubled through its generator until its counting range covers
    P_inner, and refused once the next window would pass WINDOW_CAP; a
    window 0..P_out+1 always doubles, so that refusal precedes building it.
    """
    P_out = min(N.P, 2000) if P_out is None else _integer(
        P_out, "bidual: window length P_out", 8)
    _window_length(P_out + 1, "bidual: window length P_out + 1")
    refusal = f"bidual: counting range of {N.name} stops below"
    if N.generator is not None and N.P <= P_out + 1 and 2 * (P_out + 1) > WINDOW_CAP:
        raise CensoredWindowError(f"{refusal} floor(nu_{P_out + 1}) + 2",
                                  required_P=2 * (P_out + 1))
    M = N.extended(P_out + 1)
    P_inner = max(_counting_range(M, P_out + 1) + 2, 8)
    if P_inner > DUAL_CEILING:
        raise CensoredWindowError(
            f"bidual: inner dual window {P_inner} of {N.name} exceeds "
            f"DUAL_CEILING = {DUAL_CEILING}")
    while _counting_range(M) < P_inner:
        if M.generator is None or 2 * M.P > WINDOW_CAP:
            raise CensoredWindowError(f"{refusal} {P_inner}",
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
    H: float                # a ClosedForm's constant, else a window lower bound


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
    A ClosedForm generator decides the tail, ln(mu_q/q) = (a - 1) ln q +
    b (2q - 1): its sup is infinite for b > 0 or b = 0 < a - 1, and refused;
    for a > 1 the window is extended once to the last rise of ln(mu_q/q),
    q* = (a - 1)/(-2b), refused past WINDOW_CAP; otherwise mu_q/q falls past
    the window, whose sup is exact.  Any other input must pass
    _tail_sup_resolvable, and H is then a window lower bound for the true
    constant.
    """
    refusal = (f"regularize: tail sup of mu_q/q unresolved within window "
               f"of {M.name}")
    form = M.generator
    work = M
    if isinstance(form, ClosedForm):
        if form.b > 0 or form.b == 0 < form.a - 1:
            raise InconclusiveTailError(
                f"{refusal}; mu_q/q of its closed form tends to infinity")
        if form.a > 1:
            q_star = (form.a - 1) / (-2 * form.b)
            if q_star > WINDOW_CAP:
                raise InconclusiveTailError(
                    f"{refusal}; mu_q/q of its closed form peaks at "
                    f"q = {q_star:.6g}, past WINDOW_CAP = {WINDOW_CAP}")
            work = M.extended(math.ceil(q_star))
    logmu = quotients(work)
    p = np.arange(1, work.P + 1, dtype=float)
    log_ratio = logmu[1:] - np.log(p)     # ln(mu_q / q)
    if not isinstance(form, ClosedForm) and not _tail_sup_resolvable(log_ratio):
        raise InconclusiveTailError(refusal)
    # running sup from the right of ln(mu_q/q)
    log_sup = np.maximum.accumulate(log_ratio[::-1])[::-1]
    # H = sup_{p<=q} (mu_q/q) / (mu_p/p)
    running_min = np.minimum.accumulate(log_ratio)
    logH = max(float(np.max(log_sup - running_min)), 0.0)
    try:
        H = math.exp(logH)
    except OverflowError:
        raise PreconditionError(f"regularize: ln H = {logH:.6g} of {M.name} "
                                "is past float range") from None
    loglam = np.empty(work.P + 1)
    loglam[0] = 0.0
    loglam[1:] = np.log(p) + log_sup - logH
    L = from_quotients(loglam, f"reg[{M.name}]",
                       f"transform:regularize({M.provenance})")
    return RegularizationResult(L=L, H=H)


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
    out = from_quotients(newlog, f"norm[{L.name}]",
                         f"transform:normalize_head({L.provenance})")
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
