import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightseq import analysis as an
from weightseq import seqcore as sc
from weightseq import transforms as tr
from weightseq.errors import InvalidSequenceError, PreconditionError


# ---------------------------------------------------------------------------
# property checks
# ---------------------------------------------------------------------------

def test_lc_matches_quotient_monotonicity():
    assert an.check_property(sc.gevrey(1), "lc").holds
    bumps = sc.custom([0, 1, 0, 3, 4, 5, 6, 7, 8, 9])
    v = an.check_property(bumps, "lc")
    assert v.fails and v.witness["p"] == 1  # M_1^2 > M_0 M_2


@given(st.lists(st.floats(min_value=-20, max_value=20, allow_nan=False),
                min_size=10, max_size=40))
@settings(max_examples=60)
def test_lc_verdict_iff_nondecreasing_quotients(logs):
    M = sc.custom(logs)
    v = an.check_property(M, "lc")
    assert v.holds == bool(np.all(np.diff(sc.quotients(M)[1:]) >= -1e-12))


def test_mg_fixtures():
    v = an.check_property(sc.qgevrey(2), "mg")
    assert v.fails and "p" in v.witness
    v = an.check_property(sc.gevrey(2), "mg")
    assert v.holds and v.witness["C"] < 8.0
    # log-concave, so no quotient-doubling certificate: the pair statistic
    # (ln M_2p - 2 ln M_p)/(2p + 1) falls along the whole diagonal
    v = an.check_property(tr.conjugate(sc.gevrey(1.5)), "mg")
    assert v.holds and v.notes == "pair statistic stable"
    assert v.witness == {"C": 1.0}


def _window_constant_matrix(logM):
    """ln C from every pair (p, q) at once in (P+1)^2 arrays: the formula
    the linear-memory scan replaced, kept as its oracle."""
    P = logM.size - 1
    n = P + 1
    pair = logM[None, :n] + logM[:n, None]
    idx = np.arange(n)
    s = idx[None, :] + idx[:, None]
    stat = np.where(s <= P, logM[np.minimum(s, P)] - pair, -np.inf)
    return float((stat / (s + 1.0)).max())


def _exactly_convex(logM):
    """ln M_{p-1} + ln M_{p+1} >= 2 ln M_p in rationals: the oracle of
    WeightSequence._exactly_convex."""
    f = [Fraction(float(x)) for x in logM]
    return all(f[p - 1] + f[p + 1] >= 2 * f[p] for p in range(1, len(f) - 1))


def _perturbed(alpha, P, seed):
    logM = sc.gevrey(alpha, P=P).logM.copy()
    logM[1:] += 0.02 * np.random.default_rng(seed).uniform(size=P)
    return sc.custom(logM)


_MG_WINDOWS = {
    "gevrey": lambda P: sc.gevrey(1.5, P=P),
    "qgevrey": lambda P: sc.qgevrey(2, P=P),
    "conjugate": lambda P: tr.conjugate(sc.gevrey(0.3, P=P)),
    "custom": lambda P: _perturbed(0.9, P, P),
    "lcm": lambda P: tr.log_convex_minorant(_perturbed(1.5, P, P + 1)),
}


@pytest.mark.parametrize("P", [0, 1, 2, 3, 16, 17, 512, 1024])
@pytest.mark.parametrize("kind", sorted(_MG_WINDOWS))
def test_window_constant_matches_all_pairs(kind, P):
    # sequences need P >= 8: shorter windows are prefixes of a longer one
    logM = _MG_WINDOWS[kind](max(P, 16)).logM[: P + 1]
    assert an._log_window_constant(logM) == _window_constant_matrix(logM)
    if _exactly_convex(logM):  # the balanced split, short windows included
        assert an._log_window_constant(logM, True) == _window_constant_matrix(logM)


@given(st.lists(st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
                min_size=1, max_size=60))
@settings(max_examples=200)
def test_window_constant_matches_all_pairs_random(logs):
    logM = np.asarray(logs, dtype=float)
    assert an._log_window_constant(logM) == _window_constant_matrix(logM)


def test_mg_memory_linear_in_P():
    M = sc.gevrey(1.5, P=10_000)
    tracemalloc.start()
    try:
        v = an.check_property(M, "mg")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert v.holds
    assert peak < 4 * 2**20  # one (P+1)^2 float array alone is 800 MB


# windows built from non-decreasing quotient steps: integer steps (runs of
# equal quotients, exact sums) and float steps, whose rounded sums may or
# may not stay exactly convex
_steps = st.one_of(st.integers(0, 3).map(float), st.floats(0.0, 2.0, allow_nan=False))
convex_windows = st.builds(
    lambda steps, scale, start: np.concatenate(
        [[0.0], np.cumsum(start + scale * np.cumsum(steps))]),
    st.one_of(st.lists(st.integers(0, 3).map(float), min_size=8, max_size=120),
              st.lists(_steps, min_size=8, max_size=120)),
    st.sampled_from([1.0, 0.5, 7.25, 1e-3, 1e6]),
    st.sampled_from([0.0, -5.0, 1.0, -0.25]))


@given(convex_windows, st.integers(1, 10**6))
@settings(max_examples=200, deadline=None)
def test_mg_balanced_split_matches_the_scan(logM, pick):
    M = sc.custom(logM)
    assert M._exactly_convex == _exactly_convex(M.logM)
    if M._exactly_convex:
        assert an._log_window_constant(M.logM, True) == an._log_window_constant(M.logM)
    # one ulp up at an interior entry: at a tight entry (a + c = 2b) that
    # breaks exact convexity, and the proof must see it
    p = 1 + pick % (M.P - 1)
    nudged = M.logM.copy()
    nudged[p] = np.nextafter(nudged[p], math.inf)
    N = sc.custom(nudged)
    assert N._exactly_convex == _exactly_convex(nudged)
    a, b, c = (Fraction(float(x)) for x in M.logM[p - 1 : p + 2])
    if a + c == 2 * b:
        assert not N._exactly_convex


def test_mg_takes_the_scan_one_ulp_off_convex(monkeypatch):
    seen = []
    scan = an._log_window_constant
    monkeypatch.setattr(an, "_log_window_constant",
                        lambda logM, convex=False: seen.append(convex) or scan(logM, convex))
    # integer quotients 0, 1, ..., 40, then equal from p = 41 on
    steps = (np.arange(100) < 40).astype(float)
    logM = np.concatenate([[0.0], np.cumsum(np.cumsum(steps))])
    nudged = logM.copy()
    nudged[70] = np.nextafter(nudged[70], math.inf)
    for window, convex in ((logM, True), (nudged, False),
                           (sc.gevrey(1.5, P=512).logM, True)):
        v = an.check_property(sc.custom(window), "mg")
        assert seen.pop() is convex
        assert v.holds and v.witness["C"] == an._exp_reported(
            _window_constant_matrix(np.asarray(window)))


def test_quotient_ratio_bound_qgevrey():
    v = an.check_property(sc.qgevrey(2), "quotient-ratio-bound")
    assert v.holds
    assert v.witness["A"] == pytest.approx(4.0, abs=1e-6)


@pytest.mark.parametrize("P", [512, 1024, 2048, 4096])
@pytest.mark.parametrize("q", [1.2, 1.5, 2.0, 2.5, 3.0, 5.0])
def test_qgevrey_trend_verdicts_decided(q, P):
    # ln M_p ~ p^2 ln q reaches ~1e7: the trend tolerances follow its
    # rounding, so the doubling statistic 2p ln q refutes moderate growth
    # and the constant step 2 ln q bounds the quotient ratio
    M = sc.qgevrey(q, P=P)
    assert an.check_property(M, "mg").fails
    assert an.check_property(M, "quotient-ratio-bound").holds


def test_dc_and_quotient_ratio_mg_chain():
    # window mg certificate implies the conjugate's dc-window certificate
    for M in (sc.gevrey(0.25), sc.gevrey(0.75), sc.gevrey(1)):
        if an.check_property(M, "mg").holds:
            assert not an.check_property(tr.conjugate(M), "dc").fails


def test_gamma1_fixtures():
    assert an.check_property(sc.gevrey(2), "gamma1").holds
    assert an.check_property(sc.gevrey(1), "gamma1").fails
    assert an.check_property(sc.gevrey(0.5), "gamma1").fails
    assert an.check_property(sc.qgevrey(2), "gamma1").holds


def _floats(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        for x in obj:
            yield from _floats(x)
    elif isinstance(obj, float):
        yield obj


@pytest.mark.parametrize("q", [1.2, 2.5, 3.0])
def test_qgevrey_past_float_range_sound(q):
    # mu_p passes 1e308 inside the window: no warning, and only an
    # inconclusive verdict may carry a non-finite witness
    M = sc.qgevrey(q, P=2048)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        verdicts = {prop: an.check_property(M, prop) for prop in an.PROPERTY_NAMES}
    for prop, v in verdicts.items():
        if v.status != "inconclusive":
            assert all(math.isfinite(x) for x in _floats(v.witness)), prop
    g = verdicts["gamma1"]
    assert g.status == "inconclusive"
    assert g.notes == "holds withdrawn: non-finite witness"


def _quotient_window(logmu):
    """from_quotients window on p = 0..512 with ln mu_p = logmu(p), p >= 1."""
    p = np.arange(513, dtype=float)
    return sc.from_quotients(np.concatenate([[0.0], logmu(p[1:])]))


@pytest.mark.parametrize("prop, logmu", [
    # one step of 800 in ln mu: A = e^800 (was e^700, a finite false witness)
    ("quotient-ratio-bound", lambda p: np.where(p <= 100, 0.0, 800.0)),
    # ln mu_1 = 800: A = e^800 (was an overflow warning)
    ("dc", lambda p: 800.0 + np.log(p)),
    # fails branch: C ~ e^800 (was a bare OverflowError)
    ("gamma1", lambda p: 800.0 + 0.5 * np.log(p)),
    # holds branch: tail_bound ~ e^1000 and 1/mu_p past float range
    ("gamma1", lambda p: -1000.0 + 1.5 * np.log(p)),
], ids=["qrb-step", "dc-head", "gamma1-fails", "gamma1-holds"])
def test_witness_past_float_range_withdrawn(prop, logmu):
    M = _quotient_window(logmu)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = an.check_property(M, prop)
    assert v.status == "inconclusive"
    assert v.notes.split(";")[0].endswith("withdrawn: non-finite witness")


def test_non_finite_witness_withdrawn(monkeypatch):
    witnesses = [{"x": float("nan")}, {"pairs": {"a": [1.0, float("inf")]}},
                 {"range": (0.0, -float("inf"))}, {"x": np.float64("nan")}]
    for status in ("holds", "fails"):
        for w in witnesses:
            monkeypatch.setitem(an._CHECKS, "fake",
                                lambda M, w=w: an.Verdict(status, w, (1, 8), "why"))
            v = an.check_property(sc.gevrey(1), "fake")
            assert v.status == "inconclusive" and v.witness == w
            assert v.notes == f"{status} withdrawn: non-finite witness; why"
    ok = an.Verdict("holds", {"C": 2.0, "tested": [1, "a", True]}, (1, 8))
    monkeypatch.setitem(an._CHECKS, "fake", lambda M: ok)
    assert an.check_property(sc.gevrey(1), "fake") is ok


def test_beta_conditions():
    assert an.check_property(sc.gevrey(2), "beta1").holds
    assert an.check_property(sc.qgevrey(2), "beta1").holds
    assert an.check_property(sc.gevrey(2), "beta3").holds
    assert an.check_property(sc.gevrey(1), "beta1").fails  # ratio = Q exactly


def test_om1_and_momega1():
    for M in (sc.gevrey(0.5), sc.gevrey(2), sc.qgevrey(2)):
        assert an.check_property(M, "momega1").holds
        assert an.check_property(M, "om1").holds
    D = tr.dual(sc.gevrey(2), P_out=4096)
    assert an.check_property(D, "om1").holds
    D3 = tr.dual(sc.gevrey(3), P_out=4096)
    assert an.check_property(D3, "om1").holds


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
def test_momega1_not_certified_on_qgevrey_dual(q):
    # delta_p ~ ln p / (2 ln q): the root-ratio statistic falls like 1/ln j
    # to 0, although it rises inside the window's step-constant tail
    D = tr.dual(sc.qgevrey(q, P=600))
    for prop in ("momega1", "om1"):
        assert an.check_property(D, prop).status != "holds"


def test_log_concave_m_iff_conjugate_lc():
    fixtures = [sc.gevrey(0), sc.gevrey(0.25), sc.gevrey(0.5), sc.gevrey(1),
                sc.gevrey(2), sc.qgevrey(2)]
    for M in fixtures:
        assert (an.check_property(M, "log-concave-m").holds
                == an.check_property(tr.conjugate(M), "lc").holds)


def test_unknown_property():
    with pytest.raises(InvalidSequenceError):
        an.check_property(sc.gevrey(1), "frobnication")


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------

def test_relation_basics():
    G1, G2 = sc.gevrey(1), sc.gevrey(2)
    assert an.relation(G1, G2, "le").holds
    assert an.relation(G1, G2, "preceq").holds
    assert an.relation(G1, G2, "triangle").holds
    assert an.relation(G2, G1, "preceq").fails
    assert an.relation(G2, G2, "approx").holds
    assert an.relation(G2, G2, "approx").witness["sup_fwd"] == 0.0
    # a root ratio that grows, and one that stays at 1 (neither vanishes)
    assert an.relation(G2, G1, "triangle").fails
    assert an.relation(G1, G1, "triangle").status == "inconclusive"
    with pytest.raises(InvalidSequenceError, match="unknown relation"):
        an.relation(G1, G2, "nonsense")


def test_relation_conjugate_pairing():
    v = an.relation(sc.gevrey(0.75), tr.conjugate(sc.gevrey(0.25)), "approx")
    assert v.holds


def test_relation_symmetry_reflexivity():
    fams = [sc.gevrey(0.5), sc.gevrey(2), sc.qgevrey(2)]
    for M in fams:
        assert an.relation(M, M, "approx").holds
    for M in fams:
        for N in fams:
            assert (an.relation(M, N, "approx").status
                    == an.relation(N, M, "approx").status)


def test_relation_order_reversal_under_conjugation():
    pairs = [(sc.gevrey(0.25), sc.gevrey(0.5)),
             (sc.gevrey(1), sc.gevrey(2)),
             (sc.gevrey(0.5), sc.gevrey(0.5))]
    for M, N in pairs:
        fwd = an.relation(M, N, "preceq").holds
        rev = an.relation(tr.conjugate(N), tr.conjugate(M), "preceq").holds
        assert fwd == rev


def test_fixed_point_battery():
    half = sc.gevrey(0.5)
    for a in (0.2, 0.5, 0.8):
        M = sc.gevrey(a)
        to_conj = an.relation(M, tr.conjugate(M), "preceq")
        to_half = an.relation(M, half, "preceq")
        assert to_conj.status == to_half.status
        if a <= 0.5:
            assert to_conj.holds
        else:
            assert to_conj.fails
    both = (an.relation(half, tr.conjugate(half), "le").holds
            and an.relation(tr.conjugate(half), half, "le").holds)
    assert both


# ---------------------------------------------------------------------------
# Matuszewska estimation
# ---------------------------------------------------------------------------

def test_matuszewska_exact_powers():
    e = an.matuszewska(sc.quotients(sc.gevrey(2)))
    assert e.lo == pytest.approx(2.0, abs=1e-9)
    assert e.hi == pytest.approx(2.0, abs=1e-9)
    assert not e.unbounded_flag
    # direct array input: a_p = p^s
    p = np.arange(0, 257, dtype=float)
    loga = np.concatenate([[0.0], 1.5 * np.log(p[1:])])
    e = an.matuszewska(loga, "lower")
    assert e.value == pytest.approx(1.5, abs=1e-12)


def test_matuszewska_unbounded_and_conjugate_reciprocity():
    e = an.matuszewska(sc.quotients(sc.qgevrey(2)))
    assert e.unbounded_flag
    for a in (0.25, 0.5, 0.75):
        e = an.matuszewska(sc.quotients(tr.conjugate(sc.gevrey(a))))
        assert e.lo == pytest.approx(1 - a, abs=1e-9)
        assert e.hi == pytest.approx(1 - a, abs=1e-9)
    with pytest.raises(InvalidSequenceError):
        an.matuszewska(sc.quotients(sc.gevrey(1, P=12)), p0=8)


# ---------------------------------------------------------------------------
# derived reports
# ---------------------------------------------------------------------------

def test_mixed_om1():
    fam = sc.small_gevrey_family(P=1024)
    v = an.mixed_om1_check(fam, [(0.3, 0.6), (0.1, 0.9)])
    assert v.holds
    v_eq = an.mixed_om1_check(fam, [(0.4, 0.4)])
    assert v_eq.fails  # 2^j cannot be absorbed without a growth gap
    # duals of large Gevrey orders, reparametrised so members grow with the
    # parameter (dualisation reverses the pointwise order)
    dual_fam = sc.SequenceFamily(
        "dual-gevrey", lambda b, P: tr.dual(sc.gevrey(5.0 - b, P=256), P_out=2048))
    v2 = an.mixed_om1_check(dual_fam, [(2.0, 3.0)])
    assert v2.holds


def test_index_reciprocity():
    rep = an.index_reciprocity_report(sc.gevrey(2, P=10**4))
    assert rep.alpha_nu.hi == pytest.approx(2.0, abs=1e-9)
    assert abs(rep.alpha_nu.hi * rep.beta_delta.lo - 1.0) <= 0.15
    rep1 = an.index_reciprocity_report(sc.gevrey(1, P=4096))
    assert rep1.residual_upper <= 0.05 and rep1.residual_lower <= 0.05
    # quotient-ratio bound is a hard precondition
    p = np.arange(1, 65, dtype=float)
    wild = sc.from_quotients(np.concatenate([[0.0], np.log(2.0) * 2.0**p]))
    with pytest.raises(PreconditionError):
        an.index_reciprocity_report(wild)


def test_index_reciprocity_dual_window_at_counting_range(monkeypatch):
    # nu_P = 300^1.5 ~ 5196 is below 100 P and 10^6, so the dual window is
    # the counting range; the value was recorded before the shared helper
    N = sc.gevrey(1.5, P=300)
    windows = []

    def spy(M, P_out=None):
        windows.append(P_out)
        return tr.dual(M, P_out=P_out)

    monkeypatch.setattr(an, "dual", spy)
    rep = an.index_reciprocity_report(N)
    assert windows == [5196] == [tr._counting_range(N)]
    assert rep.alpha_delta.window == (519, 2598)


def test_root_vs_quotient():
    for M in (sc.gevrey(0.5), sc.gevrey(2)):
        rep = an.root_vs_quotient_lower_index(M)
        assert rep.ordered
    D = tr.dual(sc.gevrey(2), P_out=2048)
    assert an.root_vs_quotient_lower_index(D).ordered
    # q-Gevrey: both sides grow beyond any power
    e_mu = an.matuszewska(sc.quotients(sc.qgevrey(2)))
    e_rho = an.matuszewska(sc.quotients(sc.root_sequence(sc.qgevrey(2))))
    assert e_mu.unbounded_flag and e_rho.unbounded_flag


def test_verdict_serialization():
    v = an.check_property(sc.gevrey(2), "gamma1")
    d = v.to_dict()
    assert d["status"] == "holds" and "witness" in d and "window" in d
