"""Acceptance battery: the quantitative exit criteria of the library.

Each criterion is a function returning a CriterionResult with a hard
pass/fail, the tolerances baked in.  The battery is deterministic given the
seed.  Criterion 8a (uniform-bound construction at K = 4 within a window of
5000) is recorded as infeasible-by-analysis: the staged thresholds provably
exceed any small-Gevrey window of that size (see the repository notes); the
construction itself is exercised at feasible windows in the test suite.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import analysis, extension, operator_lab, seqcore, transforms, weights
from .errors import WeightSeqError


@dataclass
class CriterionResult:
    cid: str
    title: str
    passed: bool
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] criterion {self.cid}: {self.title} ({self.elapsed:.2f}s)"


def _run(cid, title, fn, *args, **kwargs):
    t0 = time.perf_counter()
    try:
        passed, details = fn(*args, **kwargs)
    except WeightSeqError as exc:
        passed, details = False, {"error": f"{type(exc).__name__}: {exc}"}
    return CriterionResult(cid=cid, title=title, passed=bool(passed),
                           details=details, elapsed=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# 1. conjugate algebra
# ---------------------------------------------------------------------------

def _c1():
    worst_inv = 0.0
    for spec in ("gevrey:0", "gevrey:0.25", "gevrey:0.5", "gevrey:0.75",
                 "gevrey:1", "gevrey:2", "qgevrey:2"):
        M = seqcore.make_family(spec)
        back = transforms.conjugate(transforms.conjugate(M))
        worst_inv = max(worst_inv, float(np.max(np.abs(back.logM - M.logM))))
    worst_pair = 0.0
    for a in (0.0, 0.25, 0.5):
        got = transforms.conjugate(seqcore.gevrey(a)).logM
        want = seqcore.gevrey(1.0 - a).logM
        worst_pair = max(worst_pair, float(np.max(np.abs(got - want))))
    fix = float(np.max(np.abs(
        transforms.conjugate(seqcore.gevrey(0.5)).logM - seqcore.gevrey(0.5).logM)))
    ok = worst_inv <= 1e-10 and worst_pair <= 1e-9 and fix <= 1e-9
    return ok, {"involution_max_err": worst_inv, "pairing_max_err": worst_pair,
                "fixed_point_err": fix}


# ---------------------------------------------------------------------------
# 2. conjugate moderate growth
# ---------------------------------------------------------------------------

def _c2():
    worst = -np.inf
    ln2 = math.log(2.0)
    for a in (0.0, 0.25, 0.5, 0.75, 1.0):
        logMs = transforms.conjugate(seqcore.gevrey(a, P=256)).logM
        n = logMs.size
        idx = np.arange(n)
        s = idx[None, :] + idx[:, None]
        ok_mask = s <= 256
        lhs = logMs[np.minimum(s, 256)]
        rhs = s * ln2 + logMs[None, :] + logMs[:, None]
        excess = np.where(ok_mask, lhs - rhs, -np.inf)
        worst = max(worst, float(excess.max()))
    return worst <= 1e-9, {"max_excess_log": worst}


# ---------------------------------------------------------------------------
# 3. dual structure
# ---------------------------------------------------------------------------

def _c3():
    N = 10**4
    G2 = seqcore.gevrey(2, P=128)  # quotients reach 128^2 > 10^4
    D = transforms.dual(G2, P_out=N + 1)
    delta = np.exp(seqcore.quotients(D))
    delta_int = np.rint(delta).astype(np.int64)
    # independent oracle: brute-force counting of {j : j^2 <= p}
    ps = np.arange(1, N + 1)
    js = np.arange(1, int(math.isqrt(N)) + 2, dtype=np.int64)
    oracle = np.searchsorted(js * js, ps, side="right")
    exact = bool(np.all(delta_int[2 : N + 1] == np.maximum(oracle[:-1], 1)))
    ratio = delta_int[5 : N + 1] / np.arange(5, N + 1, dtype=float)
    running_min = np.minimum.accumulate(ratio)
    H = float(np.max(ratio[1:] / running_min[:-1])) if ratio.size > 1 else 1.0
    dyadic = np.array([delta_int[2**k] / 2.0**k for k in range(3, 14)])
    dyadic_mono = bool(np.all(np.diff(dyadic) <= 1e-15))
    small_end = bool(delta_int[N] / N < 0.05)
    E = transforms.bidual(G2.extended(2048), P_out=2000)
    p = np.arange(16, 2001)
    sup_eq = float(np.max(np.abs(E.logM[16:2001] - seqcore.gevrey(2, P=2000).logM[16:2001]) / p))
    ok = exact and H <= 1.5 and dyadic_mono and small_end and sup_eq <= math.log(4.0)
    return ok, {"delta_exact": exact, "almost_decreasing_H": H,
                "dyadic_monotone": dyadic_mono, "ratio_at_end": float(delta_int[N] / N),
                "bidual_equiv_sup": sup_eq, "bidual_bound": math.log(4.0)}


# ---------------------------------------------------------------------------
# 4. index reciprocity
# ---------------------------------------------------------------------------

def _c4():
    details = {}
    ok = True
    for a in (2, 3):
        N = seqcore.gevrey(a, P=10**4)
        rep = analysis.index_reciprocity_report(N)
        details[f"gevrey({a})"] = {"upper": rep.residual_upper,
                                   "lower": rep.residual_lower}
        ok = ok and rep.residual_upper <= 0.15 and rep.residual_lower <= 0.15
    return ok, details


# ---------------------------------------------------------------------------
# 5. associated weight machinery
# ---------------------------------------------------------------------------

def _c5(seed=0):
    rng = np.random.default_rng(seed)
    details = {}
    ok = True
    for a in (1, 2):
        M = seqcore.gevrey(a)
        grid = weights.default_t_grid(M, t_min=1.05)
        grid = grid[grid < weights.valid_to(M) * 0.95]
        res = max(weights.integral_representation_residual(M, float(t)) for t in grid)
        details[f"residual gevrey({a})"] = res
        ok = ok and res <= 1e-9
        mu1 = float(np.exp(seqcore.quotients(M)[1]))
        zeros = [weights.omega(M, float(t)).value for t in np.linspace(0.0, mu1, 20)]
        ok = ok and max(zeros) == 0.0
        details[f"zero_on_head gevrey({a})"] = max(zeros)
        # step identity at 50 sampled radii
        logmu = seqcore.quotients(M)
        worst = 0.0
        for _ in range(50):
            p = int(rng.integers(1, M.P - 1))
            lo, hi = logmu[p], logmu[p + 1]
            if hi - lo < 1e-12:
                continue
            r = math.exp(rng.uniform(lo, min(hi, lo + 30)))
            w = weights.omega(M, r)
            worst = max(worst, abs(w.value - (p * math.log(r) - float(M.logM[p]))))
        details[f"step_identity gevrey({a})"] = worst
        ok = ok and worst <= 1e-9
    for M in (seqcore.gevrey(0.5), seqcore.gevrey(2),
              transforms.dual(seqcore.gevrey(2), P_out=2048)):
        rep = analysis.root_vs_quotient_lower_index(M)
        details[f"beta_order {M.name}"] = {"rho": rep.beta_rho.lo, "mu": rep.beta_mu.lo}
        ok = ok and rep.ordered
    return ok, details


# ---------------------------------------------------------------------------
# 6. regularization
# ---------------------------------------------------------------------------

def _random_lc(rng, tag, P=512):
    # jitter decays with p so the tail supremum of mu_q/q resolves inside
    # the window while the head still forces a regularization constant H > 1;
    # the first quotient is pushed below 1 to exercise head normalization
    p = np.arange(1, P + 1, dtype=float)
    jitter = rng.normal(0.0, 0.6, P) * p**-0.75
    base = 0.8 * np.log(p) - 0.45 + jitter
    base[0] = min(base[0], -0.05)
    logmu = np.maximum.accumulate(base)
    return seqcore.from_quotients(np.concatenate([[0.0], logmu]),
                                  name=f"lc-perturbed-{tag}")


def _c6(seed=20260810):
    rng = np.random.default_rng(seed)
    fixtures = [transforms.dual(seqcore.gevrey(2), P_out=2000)]
    fixtures += [_random_lc(rng, i) for i in range(3)]
    details = {}
    ok = True
    for M in fixtures:
        reg = transforms.regularize_almost_decreasing(M)
        lam = np.exp(seqcore.quotients(reg.L))
        mu = np.exp(seqcore.quotients(M))
        P = min(reg.L.P, M.P)
        p = np.arange(1, P + 1, dtype=float)
        noninc = bool(np.all(np.diff(lam[1 : P + 1] / p) <= 1e-12))
        upper = bool(np.all(lam[1 : P + 1] <= mu[1 : P + 1] * (1 + 1e-12)))
        lower = bool(np.all(lam[1 : P + 1] >= mu[1 : P + 1] / reg.H * (1 - 1e-12)))
        hn = transforms.normalize_head(reg.L)
        head = bool(abs(hn.L.logM[0]) <= 1e-12 and abs(hn.L.logM[1]) <= 1e-12)
        gap = hn.L.logM[: P + 1] - reg.L.logM[: P + 1]
        sandwich = bool(np.all(gap >= -1e-12) and np.all(gap <= hn.log_c + 1e-12))
        details[M.name] = {"H": reg.H, "lambda_over_p_nonincreasing": noninc,
                           "upper": upper, "lower": lower,
                           "head": head, "normalized_sandwich": sandwich}
        ok = ok and noninc and upper and lower and head and sandwich
    return ok, details


# ---------------------------------------------------------------------------
# 7. extension bounds
# ---------------------------------------------------------------------------

def _c7():
    details = {}
    ok = True
    grid = np.geomspace(0.5, 50.0, 20)
    for a, P in ((0.0, 1024), (0.25, 4096), (0.5, 50000)):
        M = seqcore.gevrey(a, P=P)
        worst = -np.inf
        for h in (0.5, 1.0, 2.0):
            for z in grid:
                mp_ = extension.taylor_majorant(M, h, 1.0, float(z))
                worst = max(worst, mp_.log_lhs - mp_.log_rhs)
        details[f"forward gevrey({a})"] = worst
        ok = ok and worst <= math.log(1 + 1e-9)
    for a in (0.0, 0.25, 0.5):
        Ms = transforms.conjugate(seqcore.gevrey(a, P=2048))
        F = extension.CoefficientFunction.reciprocal(Ms)
        for n in (5, 10, 20):
            rb = extension.cauchy_restriction_bound(F, Ms, A=2.0, k=2.0, x=0.3, n=n)
            margin = rb.log_deriv - rb.log_bound
            details[f"cauchy gevrey({a}) n={n}"] = {"margin": margin,
                                                    "route": rb.route}
            ok = ok and margin <= math.log(1 + 1e-6)
    return ok, details


# ---------------------------------------------------------------------------
# 8. uniform bound
# ---------------------------------------------------------------------------

def small_gevrey_ladder_family():
    """Small-Gevrey family parametrised directly by the order."""
    return seqcore.small_gevrey_family(P=5000, name="small-gevrey-direct")


def _c8a():
    # stated constants: K = 4 inside a window of 5000.  The staged
    # construction needs (1 - alpha_k)(B(j_{k+1}) - B(j_k)) > 2 ln k with
    # B(j) = ln(j!)/j <= 7.52 at j = 5000, and the accumulated demand
    # exceeds 8.3 for every choice of orders, so stage 4 must exhaust the
    # window.  The criterion is run as stated and reported honestly; the
    # same construction completes at feasible windows (see the test suite).
    fam = small_gevrey_ladder_family()
    try:
        res = weights.uniform_bound_construct(
            fam, K=4, P=5000, params=[0.05, 0.08, 0.28, 0.50, 0.70])
    except WeightSeqError as exc:
        return False, {"error": f"{type(exc).__name__}: {exc}",
                       "note": "infeasible at the stated window; see notes"}
    ok = (res.roots_nonincreasing and res.roots_final <= 0.2
          and all(res.ratio_indices[k] <= 5000 for k in range(1, 5)))
    return ok, {"j_breaks": res.j_breaks, "roots_final": res.roots_final}


def _c8b():
    fam = small_gevrey_ladder_family()
    pairs = [(0.1, 0.3), (0.3, 0.5), (0.5, 0.7), (0.1, 0.7), (0.2, 0.9),
             (0.6, 0.9)]
    v = analysis.mixed_om1_check(fam, pairs, P=2048)
    return v.holds, {"status": v.status, "pairs": v.witness["pairs"]}


def _c8():
    ok_a, det_a = _c8a()
    ok_b, det_b = _c8b()
    return ok_a and ok_b, {"construction_K4_P5000": det_a,
                           "mixed_scaling_pairs": det_b}


# ---------------------------------------------------------------------------
# 9. the boundedness demonstration
# ---------------------------------------------------------------------------

def _c9(n_terms=120):
    demo = operator_lab.ring_demonstration(n_terms)
    details = {"n_terms": n_terms, "exp": {}, "weighted": {}}
    for t, rep in demo.exponential.items():
        details["exp"][f"t={t:g}"] = rep.certificate
    for (name, t), rep in demo.weighted.items():
        details["weighted"][f"{name}, t={t:g}"] = (rep.certificate,
                                                    rep.diverged_from)
    details["l2_summable"] = demo.vec.l2_report()["summable"]
    ok = (all(r.certificate == "converged" for r in demo.exponential.values())
          and all(r.certificate == "diverged" for r in demo.weighted.values())
          and details["l2_summable"])
    return ok, details


# ---------------------------------------------------------------------------
# 10. bounded-case solutions
# ---------------------------------------------------------------------------

def _c10(seed=7):
    rng = np.random.default_rng(seed)
    eigs = np.sort(rng.uniform(-3.0, 3.0, 6))
    y0 = rng.normal(size=6) + 1j * rng.normal(size=6)
    details = {}
    ok = True
    for t in (0.0, 0.3, 1.0):
        rep = operator_lab.bounded_solution_check(eigs, y0, t, seed=seed)
        details[f"t={t:g}"] = {"max_rel_err": rep.max_rel_err,
                               "exp_type_margin": rep.exp_type_margin}
        ok = ok and rep.max_rel_err <= 1e-9 and rep.exp_type_margin <= 1 + 1e-9
    details["type_constant"] = rep.exp_type_constant
    return ok, details


# ---------------------------------------------------------------------------
# 11. predicate fixtures
# ---------------------------------------------------------------------------

def _c11():
    details = {}
    Q2 = seqcore.qgevrey(2)
    mg = analysis.check_property(Q2, "mg")
    qrb = analysis.check_property(Q2, "quotient-ratio-bound")
    g1 = analysis.check_property(seqcore.gevrey(2), "gamma1")
    ok = (mg.fails and "p" in mg.witness
          and qrb.holds and abs(qrb.witness["A"] - 4.0) <= 1e-6
          and g1.holds and "tail_rate" in g1.witness)
    details["qgevrey2_mg"] = {"status": mg.status, "witness": mg.witness}
    details["qgevrey2_qrb"] = {"status": qrb.status, "A": qrb.witness.get("A")}
    details["gevrey2_gamma1"] = {"status": g1.status,
                                 "sup": g1.witness.get("sup")}
    fixtures = [seqcore.gevrey(0), seqcore.gevrey(0.25), seqcore.gevrey(0.5),
                seqcore.gevrey(1), seqcore.gevrey(2), seqcore.qgevrey(2)]
    cross = {}
    for M in fixtures:
        conj_lc = analysis.check_property(transforms.conjugate(M), "lc")
        m_logc = analysis.check_property(M, "log-concave-m")
        agree = conj_lc.holds == m_logc.holds
        cross[M.name] = {"conjugate_lc": conj_lc.status,
                         "m_log_concave": m_logc.status, "agree": agree}
        ok = ok and agree
    details["cross_check"] = cross
    return ok, details


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------

CRITERIA = {
    "1": ("conjugate algebra", _c1),
    "2": ("conjugate moderate growth", _c2),
    "3": ("dual structure", _c3),
    "4": ("index reciprocity", _c4),
    "5": ("associated weight machinery", _c5),
    "6": ("almost-decreasing regularization", _c6),
    "7": ("extension bounds", _c7),
    "8": ("uniform bound construction", _c8),
    "9": ("boundedness demonstration", _c9),
    "10": ("bounded-case solutions", _c10),
    "11": ("predicate fixtures", _c11),
}

SUITES = {
    "conjugate": ("1", "2"),
    "dual": ("3", "6"),
    "omega": ("5", "8"),
    "extension": ("7",),
    "markin": ("9", "10"),
    "indices": ("4", "11"),
    "all": tuple(CRITERIA),
}


def run_criterion(cid: str, **kwargs) -> CriterionResult:
    title, fn = CRITERIA[cid]
    return _run(cid, title, fn, **kwargs)


def run_suite(suite: str, seed: int = 0, markin_terms: int = 120) -> list:
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; known: {', '.join(SUITES)}")
    results = []
    for cid in SUITES[suite]:
        kwargs = {}
        if cid == "9":
            kwargs["n_terms"] = markin_terms
        if cid == "6":
            kwargs["seed"] = 20260810 + seed
        if cid == "5":
            kwargs["seed"] = seed
        results.append(run_criterion(cid, **kwargs))
    return results
