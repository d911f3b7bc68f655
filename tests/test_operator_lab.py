import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightseq import extension as ex
from weightseq import operator_lab as ol
from weightseq import seqcore as sc
from weightseq import transforms as tr
from weightseq import weights as wt
from weightseq.errors import (InvalidSequenceError, PreconditionError,
                              UntrustedEvaluationError)


@pytest.fixture(scope="module")
def gauge():
    return wt.build_gauge(wt.markin_bound(512),
                          [sc.gevrey(a) for a in (0.1, 0.5, 0.9)])


@pytest.fixture(scope="module")
def minimal_model(gauge):
    return ol.build_counterexample(gauge, n_terms=12)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_counterexample_structure(gauge, minimal_model):
    model, vec = minimal_model
    n = np.arange(1, 13)
    assert np.all(np.diff(model.logk) > 0)          # k strictly increasing
    assert np.all(model.logk >= np.log(n) - 1e-12)  # k(n) >= n
    assert np.all(model.log_g_at_k >= np.log(n) - 1e-9)  # g(k(n)) >= n
    # eps: eps_1 = 1/4, halving rule below min(1/n, prev)
    assert model.eps[0] == 0.25
    for i in range(1, 12):
        assert model.eps[i] == pytest.approx(
            min(1.0 / (i + 1), model.eps[i - 1]) / 2.0)
    assert np.all(model.eps < 0.5)  # lambda = k + 1/2 sits inside every ring
    # small thresholds solve to exact integers
    assert model.integral_k[:3].all()
    assert not model.integral_k[5:].any()
    assert vec.l2_report()["summable"]


def test_counterexample_minimal_thresholds(gauge, minimal_model):
    model, _ = minimal_model
    # minimality at n = 1: a unit step in k still moves g measurably there
    k1 = round(math.exp(model.logk[0]))
    assert gauge.log_g(math.log(k1)) >= -1e-12
    assert gauge.log_g(math.log(k1 - 1)) < 0.0
    # at larger n the threshold is only resolvable at scale; half of k(2)
    # must sit clearly under the target
    assert gauge.log_g(model.logk[1] - math.log(2)) < math.log(2)
    assert gauge.log_g(model.logk[1]) >= math.log(2) - 1e-9


def test_counterexample_requires_decay(gauge, minimal_model):
    ones = sc.custom(np.zeros(65), name="ones")
    flat = wt.build_gauge(ones)
    with pytest.raises(PreconditionError):
        ol.build_counterexample(flat, n_terms=4)
    with pytest.raises(InvalidSequenceError):
        ol.build_counterexample(wt.build_gauge(wt.markin_bound(128)), n_terms=0)
    # ln k ~ 4 exp(2 ln g) is past float range for ln g = 800
    with pytest.raises(PreconditionError, match="past float range"):
        ol.build_counterexample(gauge, n_terms=3, log_g_floor=800)


# ---------------------------------------------------------------------------
# spectral sums
# ---------------------------------------------------------------------------

def test_exponential_sum_certificates(minimal_model):
    model, vec = minimal_model
    for t in (0.5, 1.0, 2.0):
        rep = ol.exponential_class_sum(model, vec, t)
        assert rep.certificate == "converged"
        assert float(rep.max_tail_log_ratio) <= -math.log(2)
    # once ln g(k(n)) exceeds t the terms must decrease
    rep = ol.exponential_class_sum(model, vec, 1.5)
    lng = model.log_g_at_k
    for i in range(1, model.n_terms):
        if lng[i] > 1.5 and lng[i - 1] > 1.5:
            assert rep.term_logs[i] < rep.term_logs[i - 1]


def test_weighted_sum_divergence(minimal_model):
    model, vec = minimal_model
    rep = ol.weighted_class_sum(model, vec, sc.gevrey(0.5), 1.0)
    assert rep.certificate == "diverged"
    assert rep.diverged_from is not None
    with pytest.raises(UntrustedEvaluationError):
        ol.weighted_class_sum(model, vec, sc.gevrey(0), 1.0)
    with pytest.raises(InvalidSequenceError):
        ol.weighted_class_sum(model, vec, sc.gevrey(0.5), 0.0)


def test_weighted_sum_window_only_sequence():
    # a custom window has no closed form: terms omega trusts read the
    # window, a term it does not trust is refused
    M = sc.custom(sc.gevrey(0.5, P=64).logM)
    lam = np.array([1.0, 2.0, 4.0])
    model, vec = ol.from_floats(lam, -lam)
    t = 0.5 * wt.valid_to(M) / lam[-1]
    rep = ol.weighted_class_sum(model, vec, M, t)
    for i in range(lam.size):
        assert float(rep.term_logs[i]) == pytest.approx(
            2 * float(vec.logc[i]) + 2 * wt.omega(M, t * lam[i]).value,
            rel=1e-12)
    with pytest.raises(UntrustedEvaluationError) as exc:
        ol.weighted_class_sum(model, vec, M, 4 * t)
    assert exc.value.required_P == 4 * M.P


@pytest.mark.parametrize("coeff_logs, summable", [
    (lambda n: -0.5 * np.log(n), False),  # sum 1/n diverges
    (lambda n: -np.log(n), False),        # sum 1/n^2 converges, too slowly to certify
    (lambda n: -0.5 * n, True),           # sum e^-n
    (lambda n: -n, True),                 # sum e^-2n
], ids=["1/n", "1/n^2", "e^-n", "e^-2n"])
def test_l2_report_reads_the_series_certificate(coeff_logs, summable):
    n = np.arange(1.0, 201.0)
    _, vec = ol.from_floats(n, coeff_logs(n))
    rep = vec.l2_report()
    cert = ol._certify([2 * c for c in vec.logc], 0.0)
    assert rep["summable"] is summable is cert.converged
    assert rep["log_sum"] == cert.log_partial_sum
    assert rep["max_log_ratio"] == cert.max_tail_log_ratio


def _diverged_from_quadratic(term_logs, converged):
    """The all-pairs rule: the first start past which every term is >= 1,
    kept only when at least two terms follow it and nothing converged."""
    n = len(term_logs)
    found = None
    for start in range(n):
        if all(term_logs[m] >= 0 for m in range(start, n)):
            found = start + 1
            break
    if found is not None and found >= n or converged:
        return None
    return found


@given(st.lists(st.one_of(st.floats(min_value=-5.0, max_value=5.0),
                          st.sampled_from([0.0, math.inf, -math.inf])),
                min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_certify_diverged_from_matches_quadratic_rule(logs):
    terms = [mp.mpf(v) for v in logs]
    rep = ol._certify(terms, 1.0)
    assert rep.diverged_from == _diverged_from_quadratic(terms, rep.converged)


def test_scaling_leaves_verdicts(minimal_model):
    model, vec = minimal_model
    scaled = vec.scaled(123.5)
    a = ol.exponential_class_sum(model, vec, 1.0)
    b = ol.exponential_class_sum(model, scaled, 1.0)
    assert a.certificate == b.certificate
    assert float(b.log_partial_sum - a.log_partial_sum) == pytest.approx(
        2 * math.log(123.5), abs=1e-9)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def test_membership_desk_model():
    lam = np.arange(1.0, 25.0)
    model, vec = ol.from_floats(lam, -lam**3)  # decay beats any power-type weight
    v = ol.membership_verdict(model, vec, sc.gevrey(0.5), "beurling",
                              [0.5, 1.0, 2.0, 4.0])
    assert v.status == "holds"
    v = ol.membership_verdict(model, vec, sc.gevrey(0.5), "roumieu", [1.0])
    assert v.status == "holds"


def test_membership_counterexample_fails(minimal_model):
    model, vec = minimal_model
    v = ol.membership_verdict(model, vec, sc.gevrey(0.3), "roumieu", [1.0, 2.0])
    assert v.status == "fails"
    assert v.mode == "roumieu"
    v = ol.membership_verdict(model, vec, sc.gevrey(0.3), "beurling", [1.0, 2.0])
    assert v.status == "fails"
    assert v.mode == "beurling"


def test_membership_finite_support_always_holds():
    lam = np.arange(1.0, 13.0)
    logc = np.concatenate([[-1.0, -2.0, -3.0], np.full(9, -np.inf)])
    model, vec = ol.from_floats(lam, logc)
    for M in (sc.gevrey(0.2), sc.gevrey(0.8)):
        for mode in ("roumieu", "beurling"):
            assert ol.membership_verdict(model, vec, M, mode,
                                         [0.5, 1.0, 3.0]).status == "holds"


def test_membership_monotone_in_sequence():
    lam = np.arange(1.0, 25.0)
    model, vec = ol.from_floats(lam, -lam**3)
    small = ol.membership_verdict(model, vec, sc.gevrey(0.4), "roumieu", [1.0])
    large = ol.membership_verdict(model, vec, sc.gevrey(0.6), "roumieu", [1.0])
    assert not (small.status == "holds" and large.status == "fails")


def test_membership_mode_validation(minimal_model):
    model, vec = minimal_model
    with pytest.raises(InvalidSequenceError):
        ol.membership_verdict(model, vec, sc.gevrey(0.5), "sideways", [1.0])


# ---------------------------------------------------------------------------
# bounded case
# ---------------------------------------------------------------------------

def test_bounded_solution_identity_case():
    rep = ol.bounded_solution_check([1.0, -1.0], [1.0, 0.0], 0.0)
    assert rep.max_rel_err <= 1e-12
    assert rep.exp_type_constant == 1.0
    assert rep.exp_type_margin <= 1.0 + 1e-12


def test_bounded_solution_scalar_example():
    # y(t) = e^{2t}: third derivative at t = 1 is 8 e^2
    lam = np.array([2.0])
    y1 = math.exp(2.0)
    d3 = (lam**3 * np.exp(lam * 1.0) * np.array([1.0]))[0]
    assert d3 == pytest.approx(8 * math.exp(2.0), rel=1e-12)
    rep = ol.bounded_solution_check(lam, [1.0], 1.0)
    assert rep.max_rel_err <= 1e-12
    # a rate whose squared norms stay inside float range still runs
    rep = ol.bounded_solution_check([90.0], [1.0], 0.0)
    assert rep.max_rel_err <= 1e-12 and rep.exp_type_margin <= 1.0 + 1e-9


def test_bounded_solution_random_diag():
    rng = np.random.default_rng(11)
    eigs = np.sort(rng.uniform(-2, 2, 8))
    y0 = rng.normal(size=8)
    for t in (0.0, 0.3, 1.0):
        rep = ol.bounded_solution_check(eigs, y0, t)
        assert rep.max_rel_err <= 1e-9
        assert rep.exp_type_margin <= 1.0 + 1e-9
    with pytest.raises(InvalidSequenceError):
        ol.bounded_solution_check([1.0], [1.0, 2.0], 0.0)


# ---------------------------------------------------------------------------
# the ring demonstration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("minimal_k, n_terms", [(False, 40), (True, 12)])
def test_ring_demonstration(minimal_k, n_terms):
    demo = ol.ring_demonstration(n_terms, minimal_k=minimal_k)
    model, lng = demo.model, demo.model.log_g_at_k
    assert model.n_terms == n_terms
    assert list(demo.exponential) == list(ol.T_EXP)
    # members outer, t inner: the order the verify report lists them in
    assert list(demo.weighted) == [(f"gevrey({a:g})", t)
                                   for a in ol.RING_ORDERS
                                   for t in ol.T_WEIGHTED]
    assert all(rep.certificate == "diverged" and rep.diverged_from == 1
               for rep in demo.weighted.values())
    assert demo.vec.l2_report()["summable"]
    assert np.all(lng >= np.log(np.arange(1, n_terms + 1)) - 1e-9)
    if minimal_k:
        # threshold-exact rings: ln g(k(n)) ends at ln n, and only the
        # rates below it converge
        assert lng[-1] == pytest.approx(math.log(n_terms), abs=1e-9)
        for t, rep in demo.exponential.items():
            assert rep.certificate == ("converged" if t < lng[-1] else "diverged")
    else:
        assert lng[0] >= ol.RING_LOG_G_FLOOR_SLOPE[0]
        assert all(rep.certificate == "converged"
                   for rep in demo.exponential.values())


# ---------------------------------------------------------------------------
# non-finite arguments
# ---------------------------------------------------------------------------

NON_FINITE_CALLS = {
    "omega_mp nan": lambda m, v, g: wt.omega_mp(sc.gevrey(0.5), math.nan),
    "omega_mp inf": lambda m, v, g: wt.omega_mp(sc.gevrey(0.5), math.inf),
    "weighted nan": lambda m, v, g: ol.weighted_class_sum(
        m, v, sc.gevrey(0.5), math.nan),
    "weighted inf": lambda m, v, g: ol.weighted_class_sum(
        m, v, sc.gevrey(0.5), math.inf),
    "membership nan": lambda m, v, g: ol.membership_verdict(
        m, v, sc.gevrey(0.5), "roumieu", [math.nan]),
    "exponential nan": lambda m, v, g: ol.exponential_class_sum(m, v, math.nan),
    "exponential inf": lambda m, v, g: ol.exponential_class_sum(m, v, math.inf),
    "floor inf": lambda m, v, g: ol.build_counterexample(
        g, n_terms=3, log_g_floor=math.inf),
    "floor nan": lambda m, v, g: ol.build_counterexample(
        g, n_terms=3, log_g_floor=math.nan),
    "slope nan": lambda m, v, g: ol.build_counterexample(
        g, n_terms=3, log_g_slope=math.nan),
    "coefficient nan": lambda m, v, g: ol.from_floats([1.0, 2.0], [-1.0, math.nan]),
    "coefficient +inf": lambda m, v, g: ol.from_floats([1.0, 2.0], [math.inf, -1.0]),
    "eigenvalue nan": lambda m, v, g: ol.from_floats([1.0, math.nan], [-1.0, -2.0]),
    "bounded eigenvalue nan": lambda m, v, g: ol.bounded_solution_check(
        [1.0, math.nan], [1.0, 1.0], 0.0),
    "bounded t inf": lambda m, v, g: ol.bounded_solution_check(
        [1.0, 2.0], [1.0, 1.0], math.inf),
    # e^(C|z|) or a squared norm past float range
    "bounded disc overflow": lambda m, v, g: ol.bounded_solution_check(
        [300.0], [1.0], 0.0),
    "bounded eigenvalue overflow": lambda m, v, g: ol.bounded_solution_check(
        [1e300], [1.0], 1.0),
    "bounded t overflow": lambda m, v, g: ol.bounded_solution_check(
        [1.0], [1.0], 800.0),
    "bounded norm overflow": lambda m, v, g: ol.bounded_solution_check(
        [100.0], [1.0], 3.0),
    "bounded vector overflow": lambda m, v, g: ol.bounded_solution_check(
        [1.0], [1e200], 0.0),
    "bounded zero vector": lambda m, v, g: ol.bounded_solution_check(
        [1.0], [0.0], 0.0),
    # integer arguments: NaN is refused, not a bare TypeError
    "derivative order nan": lambda m, v, g: ex.CoefficientFunction.reciprocal(
        sc.gevrey(1, P=32)).derivative_log_abs(math.nan, 1.0),
    "member P nan": lambda m, v, g: sc.small_gevrey_family().member(0.5, P=math.nan),
    "uniform bound K nan": lambda m, v, g: wt.uniform_bound_construct(
        sc.small_gevrey_family(P=64), K=math.nan, P=64),
    # an empty model, a scaling with no real finite log, an empty t grid
    "from_floats empty": lambda m, v, g: ol.from_floats([], []),
    "scaled negative": lambda m, v, g: v.scaled(-1.0),
    "scaled nan": lambda m, v, g: v.scaled(math.nan),
    "scaled inf": lambda m, v, g: v.scaled(math.inf),
    "membership beurling empty grid": lambda m, v, g: ol.membership_verdict(
        m, v, sc.gevrey(0.5), "beurling", []),
    "membership roumieu empty grid": lambda m, v, g: ol.membership_verdict(
        m, v, sc.gevrey(0.5), "roumieu", []),
    # the restriction bound's certificate constants
    "restriction A nan": lambda m, v, g: _restriction(A=math.nan),
    "restriction A inf": lambda m, v, g: _restriction(A=math.inf),
    "restriction k inf": lambda m, v, g: _restriction(k=math.inf),
    "restriction k nan": lambda m, v, g: _restriction(k=math.nan),
}


def _restriction(A=2.0, k=2.0):
    Mstar = tr.conjugate(sc.gevrey(0.5))
    return ex.cauchy_restriction_bound(ex.CoefficientFunction.reciprocal(Mstar),
                                       Mstar, A=A, k=k, x=0.0, n=10)


@pytest.mark.parametrize("case", sorted(NON_FINITE_CALLS))
def test_non_finite_arguments_rejected(case, gauge, minimal_model):
    with pytest.raises(InvalidSequenceError):
        NON_FINITE_CALLS[case](*minimal_model, gauge)


def test_omega_mp_at_zero_argument():
    # ln t = -inf is t = 0; -inf coefficient logs are covered by
    # test_membership_finite_support_always_holds
    assert wt.omega_mp(sc.gevrey(0.5), -math.inf) == 0
