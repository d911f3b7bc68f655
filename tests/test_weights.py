import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weightseq import seqcore as sc
from weightseq import transforms as tr
from weightseq import weights as wt
from weightseq.errors import (CensoredWindowError, InvalidSequenceError,
                              PreconditionError, UntrustedEvaluationError,
                              WeightSeqError)

from _omega_oracle import _omega_mp_bisect


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def test_counting_examples():
    assert wt.counting(sc.gevrey(1), 7.3) == 7
    assert wt.counting(sc.gevrey(2), 10.0) == 3  # {1, 4, 9}
    assert wt.counting(sc.gevrey(2), 0.5) == 0   # below mu_1
    with pytest.raises(CensoredWindowError):
        wt.counting(sc.gevrey(1, P=16), 17.0)
    # a tie with the last windowed quotient may hide further terms: every
    # quotient of gevrey(0) is 1, and the dual's delta_p stays 70 past p = P
    with pytest.raises(CensoredWindowError) as exc:
        wt.counting(sc.gevrey(0), 1.0)
    assert exc.value.required_P == 513
    D = tr.dual(sc.gevrey(2), P_out=5000)
    with pytest.raises(CensoredWindowError):
        wt.counting(D, math.exp(sc.quotients(D)[-1]))


def _same_omega(a, b):
    return ((a.value, a.argmax, a.trusted) == (b.value, b.argmax, b.trusted)
            and math.copysign(1.0, a.value) == math.copysign(1.0, b.value))


# every windowed quotient, 300 random ln t in [-1, ln mu_max + 1] and
# mu_max (1 + d) for d in {0, +-1e-15, +-1e-12}, mu_max the largest quotient
PROBE_WINDOWS = {
    "gevrey(0.5)": lambda: sc.gevrey(0.5),
    "gevrey(2)": lambda: sc.gevrey(2),
    "qgevrey(1.5)": lambda: sc.qgevrey(1.5, P=256),
    "gevrey(0)": lambda: sc.gevrey(0),
    "conj(gevrey(0.3))": lambda: tr.conjugate(sc.gevrey(0.3)),
    "dual(gevrey(2))": lambda: tr.dual(sc.gevrey(2), P_out=5000),
    "noisy custom": lambda: sc.custom(
        sc.gevrey(1.5, P=64).logM
        + np.random.default_rng(1).normal(0.0, 0.5, 65)),
}


def _probe_args(logmu):
    top = float(logmu.max())
    drawn = np.random.default_rng(0).uniform(-1.0, top + 1.0, 300)
    logs = np.concatenate([logmu, drawn])
    mu_max = math.exp(top)
    return [math.exp(v) for v in logs] + [mu_max * (1 + d) for d in
                                          (0.0, 1e-15, -1e-15, 1e-12, -1e-12)]


@pytest.mark.parametrize("name", list(PROBE_WINDOWS))
def test_counting_sweep(name):
    M = PROBE_WINDOWS[name]()
    logmu = sc.quotients(M)[1:]
    assert sc.is_log_convex(M) == (name != "noisy custom")
    ordered = np.sort(logmu)
    mu_max = math.exp(logmu.max())
    for t in _probe_args(logmu):
        assert _same_omega(wt.omega(M, t), wt._window_omega(M.logM, t))
        logt = math.log(t)
        if logt >= logmu.max():
            with pytest.raises(CensoredWindowError):
                wt.counting(M, t)
            refused = True
        else:
            assert wt.counting(M, t) == np.searchsorted(ordered, logt, side="right")
            refused = False
        # omega's tie tolerance leaves it untrusted in a thin band below
        # mu_max, where the count is still exact
        if sc.is_log_convex(M) and not mu_max * (1 - 1e-12) <= t < mu_max:
            assert refused == (not wt.omega(M, t).trusted)


def test_counting_step_structure():
    M = sc.gevrey(2)
    mu = np.exp(sc.quotients(M))
    for p in (3, 10, 20):
        eps = 1e-6
        assert wt.counting(M, mu[p] + eps) == p
        assert wt.counting(M, mu[p + 1] - eps) == p


# ---------------------------------------------------------------------------
# omega
# ---------------------------------------------------------------------------

def test_omega_zero_region_and_zero_arg():
    M = sc.gevrey(2)
    assert wt.omega(M, 0.0).value == 0.0
    mu1 = float(np.exp(sc.quotients(M)[1]))
    for t in np.linspace(0, mu1, 7):
        assert wt.omega(M, float(t)).value == 0.0


def test_omega_untrusted_flat_sequence():
    r = wt.omega(sc.gevrey(0), 2.0)
    assert not r.trusted
    assert r.argmax == 512


def test_omega_brute_force_oracle():
    # sup_p (p ln 100 - 2 ln p!) scanned far beyond the window
    M = sc.gevrey(2)
    p = np.arange(0, 10_001, dtype=float)
    from scipy.special import gammaln
    oracle = float(np.max(p * math.log(100.0) - 2 * gammaln(p + 1)))
    got = wt.omega(M, 100.0)
    assert got.trusted
    assert got.value == pytest.approx(oracle, abs=1e-12)
    assert got.value == pytest.approx(15.8429, abs=1e-3)  # frozen


def test_omega_monotone_and_logconvex():
    M = sc.gevrey(1.5)
    grid = wt.default_t_grid(M, t_min=1.0)
    vals = np.array([wt.omega(M, float(t)).value for t in grid])
    assert np.all(np.diff(vals) >= -1e-12)
    u = np.log(grid)
    pos = vals > 0
    d2 = vals[pos][:-2] + vals[pos][2:] - 2 * vals[pos][1:-1]
    # convex in log t on the positive part (uniform geometric grid)
    assert np.all(d2 >= -1e-8)


def test_omega_step_identity():
    for M in (sc.gevrey(1), sc.gevrey(2)):
        logmu = sc.quotients(M)
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = int(rng.integers(1, M.P // 2))
            lo, hi = logmu[p], logmu[p + 1]
            if hi - lo < 1e-9:
                continue
            r = math.exp(rng.uniform(lo, hi))
            w = wt.omega(M, r)
            assert abs(w.value - (p * math.log(r) - M.logM[p])) <= 1e-9


# exactly sorted windows: integer quotient steps (runs of equal quotients,
# exact sums) at several scales and offsets, and float steps
sorted_windows = st.builds(
    lambda steps, scale, start: np.concatenate(
        [[0.0], np.cumsum(start + scale * np.cumsum(steps))]),
    st.lists(st.one_of(st.integers(0, 3).map(float),
                       st.floats(0.0, 2.0, allow_nan=False)),
             min_size=8, max_size=200),
    st.sampled_from([1.0, 0.5, 1e-3, 7.25, 1e-9]),
    st.sampled_from([0.0, -5.0, 1.0, -0.25]))


@given(sorted_windows, st.lists(st.floats(-30.0, 30.0), max_size=20))
@settings(max_examples=150, deadline=None)
def test_sorted_omega_and_counting_match_the_scans(logM, drawn):
    # the O(log P) reads against the full scans: at every quotient, at its
    # nextafter neighbours (the ties the strict-peak rule hands to the
    # scan) and at random arguments
    M = sc.custom(logM)
    assume(M._min_logmu_step >= 0.0)
    logmu = np.diff(M.logM)
    exact = [t for q in logmu if q < 700.0 for t in
             (math.exp(q), np.nextafter(math.exp(q), 0.0),
              np.nextafter(math.exp(q), math.inf))]
    for t in exact + [math.exp(v) for v in drawn]:
        t = float(t)
        assert _same_omega(wt.omega(M, t), wt._window_omega(M.logM, t))
        logt = math.log(t) if t > 0 else -math.inf
        if logt >= logmu.max():
            with pytest.raises(CensoredWindowError):
                wt.counting(M, t)
        else:
            assert wt.counting(M, t) == np.count_nonzero(logmu <= logt)


def _near_quotients(M):
    """t at each windowed quotient and at its nextafter neighbours: ln t
    within eta of a quotient, where the grid read hands t to omega."""
    return [float(t) for q in np.diff(M.logM) if q < 700.0 for t in
            (math.exp(q), np.nextafter(math.exp(q), 0.0),
             np.nextafter(math.exp(q), math.inf)) if t > 0.0]


def _assert_grid_is_omega(M, ts):
    value, argmax, trusted = wt._omega_grid(M, ts)
    for i, t in enumerate(ts):
        w = wt.omega(M, float(t))
        assert (value[i], argmax[i], trusted[i]) == (w.value, w.argmax, w.trusted)


@given(st.one_of(sorted_windows, st.lists(st.floats(-50.0, 50.0), min_size=9, max_size=64)),
       st.lists(st.floats(-30.0, 30.0), max_size=20))
@settings(max_examples=100, deadline=None)
def test_omega_grid_matches_omega(logM, drawn):
    M = sc.custom(logM)
    _assert_grid_is_omega(M, np.array(_near_quotients(M) + [math.exp(v) for v in drawn]))


@pytest.mark.parametrize("M", [sc.gevrey(1.5, P=2048), sc.gevrey(0.5, P=2048),
                               sc.qgevrey(2, P=2048),
                               sc.custom(sc.gevrey(1.5, P=2048).logM
                                         + 0.02 * np.random.default_rng(5).uniform(size=2049))],
                         ids=["gevrey1.5", "gevrey0.5", "qgevrey2", "unsorted"])
def test_omega_grid_hands_only_uncleared_points_to_omega(M, monkeypatch):
    # om1's grid and its doubles, then points within eta of a quotient
    grid = wt.default_t_grid(M, t_min=2.0)
    near = np.array(_near_quotients(M)[:300])
    _assert_grid_is_omega(M, np.concatenate([grid, 2 * grid, near]))
    calls = []
    omega = wt.omega
    monkeypatch.setattr(wt, "omega", lambda M, t: calls.append(t) or omega(M, t))
    wt._omega_grid(M, np.concatenate([grid, 2 * grid]))
    sorted_window = M._min_logmu_step >= 0.0
    assert len(calls) < 2 * grid.size / 10 if sorted_window else len(calls) == 2 * grid.size
    calls.clear()
    wt._omega_grid(M, near)
    if sorted_window:
        assert len(calls) >= near.size // 3  # exp(ln mu_p) reads back within eta


def test_window_queries_cache_no_array():
    # the cached window views are scalars: a kept quotient array would live
    # as long as the sequence
    M = sc.gevrey(0.5, P=10**5)
    wt.omega(M, 50.0)
    wt.counting(M, 50.0)
    sc.is_log_convex(M)
    wt.integral_representation_residual(M, 50.0)
    arrays = [k for k, v in vars(M).items() if isinstance(v, np.ndarray)]
    assert arrays == ["logM"]
    q = sc.quotients(M)
    assert q.flags.writeable and q is not sc.quotients(M)


def test_valid_to_matches_last_quotient_for_lc():
    M = sc.gevrey(2)
    assert wt.valid_to(M) == pytest.approx(float(M.P) ** 2, rel=1e-9)


def test_omega_extended():
    M = sc.gevrey(0.5)
    t = 97.3  # far past valid_to = sqrt(512); argmax floor(t^2) = 9467
    r = wt.omega_extended(M, t)
    assert r.trusted and r.argmax == 9467
    assert r.value == pytest.approx(
        r.argmax * math.log(t) - 0.5 * math.lgamma(r.argmax + 1), rel=1e-12)
    with pytest.raises(UntrustedEvaluationError):
        wt.omega_extended(sc.gevrey(0), 2.0)
    # a mixed form's step index comes from Lambert's W (at P = 64, a t past
    # the window is still a float)
    M = sc.factorial_shift(sc.qgevrey(2, P=64), 1)
    t = math.exp(math.log(wt.valid_to(M)) + 3.0)
    r = wt.omega_extended(M, t)
    assert r.trusted and r.argmax == 66
    assert r.value == float(wt.omega_mp(M, math.log(t)))
    with pytest.raises(PreconditionError):
        wt.omega_extended(tr.conjugate(sc.qgevrey(2)), 1e6)
    # a term past float range is refused, never returned as a trusted inf
    for alpha, t in ((0.5, 1e200), (0.9, 1e300)):
        with pytest.raises(UntrustedEvaluationError, match="omega_mp"):
            wt.omega_extended(sc.gevrey(alpha), t)


def test_omega_mp_agrees_with_extended():
    import mpmath as mp
    M = sc.gevrey(0.5)
    for t in (50.0, 1e4):
        a = wt.omega_extended(M, t)
        b = wt.omega_mp(M, math.log(t))
        assert abs(float(b) - a.value) <= 1e-6 * max(1.0, a.value)
    # a mixed form inside its window, and past it where omega_extended reads
    # the step index
    M = sc.factorial_shift(sc.qgevrey(1.5, P=64), 2.5)
    form = M.generator
    for t in (50.0, 1e4, 1e40, 1e200):
        a = wt.omega_extended(M, t)
        b = wt.omega_mp(M, math.log(t))
        assert abs(float(b) - a.value) <= 1e-6 * max(1.0, a.value)
        assert form.log_mu_mp(a.argmax) <= math.log(t) < form.log_mu_mp(a.argmax + 1)
    assert not wt.omega(M, 1e40).trusted and wt.omega_extended(M, 1e40).argmax > M.P
    with pytest.raises(UntrustedEvaluationError):
        wt.omega_mp(sc.gevrey(0), 1.0)


def test_omega_extended_far_past_window_matches_omega_mp():
    # step indices ~1.7e12 (+5), ~3.8e16 (+8), ~5e26 (+15) and ~8e62 (+40):
    # a log-factorial difference there loses the quotient, the closed form
    # does not, and the step index is not capped
    import mpmath as mp
    M = sc.gevrey(0.3, P=10**5)
    log_vt = math.log(wt.valid_to(M))
    for span in (5.0, 8.0, 15.0, 40.0):
        r = wt.omega_extended(M, math.exp(log_vt + span))
        with mp.workdps(50):
            ref = float(wt.omega_mp(M, log_vt + span))
        assert r.trusted and abs(r.value - ref) <= 1e-12 * ref
        if span > 8.0:
            assert r.argmax > 2**62


def test_omega_extended_needs_closed_form():
    G = sc.gevrey(0.5)
    plain = sc.WeightSequence("plain", G.logM, lambda p: 0.5 * sc.log_factorial(p))
    assert wt.omega_extended(plain, 10.0).trusted  # inside the window
    with pytest.raises(UntrustedEvaluationError):
        wt.omega_extended(plain, 97.3)
    with pytest.raises(UntrustedEvaluationError):
        wt.omega_mp(plain, math.log(97.3))


OMEGA_MP_FORMS = (
    [f"gevrey:{a / 10:g}" for a in range(1, 10)]
    + [f"conjugate:{a / 10:g}" for a in range(1, 10)]
    + [f"qgevrey:{q:g}" for q in (1.5, 2.0, 3.0)])


# mixed forms, a != 0 < b: shift:q:s is factorial_shift(qgevrey(q), s),
# m:q is little_m(qgevrey(q))
MIXED_FORMS = (
    [f"shift:{q:g}:{s:g}" for q in (1.5, 2.0, 3.0) for s in (-0.5, 0.5, 1.0, 2.5)]
    + ["m:2"])


def _omega_mp_case(spec):
    kind, _, arg = spec.partition(":")
    if kind == "conjugate":
        return tr.conjugate(sc.gevrey(float(arg)))
    if kind == "shift":
        q, _, s = arg.partition(":")
        return sc.factorial_shift(sc.qgevrey(float(q)), float(s))
    if kind == "m":
        return sc.little_m(sc.qgevrey(float(arg)))
    return sc.make_family(spec)


@pytest.mark.parametrize("spec", OMEGA_MP_FORMS)
def test_omega_mp_inverse_quotient_against_bisection(spec):
    # the inverse quotient lands on p* itself, the bisection on a point up
    # to ~1.5e-5 below it in ln p: omega is flat there to second order
    import mpmath as mp
    M = _omega_mp_case(spec)
    with mp.workdps(50):
        for log_t in (3.0, 50.0, 1e4, 1e10, 1e15):
            fast = wt.omega_mp(M, log_t)
            ref = _omega_mp_bisect(M, mp.mpf(log_t))[0]
            assert fast >= ref * (1 - mp.mpf("1e-40"))
            assert abs(fast - ref) <= mp.mpf("1e-9") * ref
            assert fast > 0 or ref == 0


@pytest.mark.parametrize("alpha, log_t", [(0.1, 3.1e13), (0.9, 1.3e11),
                                          (0.7, 7e12)])
def test_omega_mp_steps_down_where_p_star_is_unresolved(alpha, log_t,
                                                       monkeypatch):
    # p* +- 1 round to p* at 50 digits and none passes mu_p <= t: the
    # argument is stepped down, never answered with 0
    import mpmath as mp
    M = sc.gevrey(alpha)
    with mp.workdps(50):
        logt = mp.mpf(log_t)
        p_hat = M.generator.inverse_mu_mp(logt)
        assert p_hat + 1 == p_hat
        assert wt._step_term(M.generator, logt, p_hat) is None
        fast = wt.omega_mp(M, log_t)
        ref = _omega_mp_bisect(M, logt)[0]
        assert ref > 0 and fast >= ref * (1 - mp.mpf("1e-40"))
        assert abs(fast - ref) <= mp.mpf("1e-9") * ref
    # with no step left, the unresolved p* is refused, never answered with 0
    monkeypatch.setattr(wt, "OMEGA_MP_STEP_DOWNS", 0)
    with mp.workdps(50):
        with pytest.raises(UntrustedEvaluationError, match="unresolved at"):
            wt.omega_mp(M, log_t)


@pytest.mark.parametrize("spec", MIXED_FORMS)
def test_omega_mp_mixed_form_against_the_oracle(spec):
    # Lambert's W gives p* of a mixed form as the inverse quotient does for
    # a one-term form
    import mpmath as mp
    M = _omega_mp_case(spec)
    a, b = M.generator.a, M.generator.b
    assert a != 0 < b
    a = a if a > 0 else 1.0
    for dps, log_t in itertools.product((15, 50), (3.0, 50.0, 1e4, 1e10, 1e15)):
        with mp.workdps(dps):
            fast = wt.omega_mp(M, log_t)
        # the oracle at omega_mp's own working digits (a 15-digit caller's
        # call raises them)
        digits = wt.OMEGA_MP_DIGITS + math.ceil(math.log10(log_t + a)
                                                - math.log10(a))
        with mp.workdps(max(dps, digits)):
            ref = _omega_mp_bisect(M, mp.mpf(log_t))[0]
            assert fast >= ref * (1 - mp.mpf("1e-40"))
            assert abs(fast - ref) <= mp.mpf("1e-9") * ref
            assert fast > 0


def test_omega_mp_lambert_w_edge():
    # ln mu_p = -ln p + 0.4 (2p - 1) has its real minimum 0.377 at
    # p = 1.25, below ln mu_1 = 0.4: no real p reaches ln t = 0.3 (W has no
    # real value there), and the root past the minimum at 0.377 and 0.39
    # lies below p = 2
    import mpmath as mp
    form = sc.ClosedForm(-1.0, 0.4)
    M = sc.WeightSequence("w-edge", form(np.arange(65)), form)
    assert sc.is_log_convex(M)
    for log_t, p in ((0.3, 0), (0.377, 1), (0.39, 1)):
        assert form.inverse_mu_mp(mp.mpf(log_t)) == p
        assert wt.omega_mp(M, log_t) == 0
    assert wt.omega_mp(M, 0.41) == pytest.approx(0.01, rel=1e-12)


def test_omega_mp_mpmath_call_count(monkeypatch):
    # O(1) exp/log per call, where the bisection spends about 116, and one
    # log-gamma: only the step index's term is evaluated
    import mpmath as mp
    counts = {"exp": 0, "log": 0, "loggamma": 0}
    for name in counts:
        def counted(*args, _fn=getattr(mp, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(mp, name, counted)
    for M in (sc.gevrey(0.1), sc.factorial_shift(sc.qgevrey(2), 1),
              sc.gevrey(0.5), sc.qgevrey(2)):
        counts.update(exp=0, log=0, loggamma=0)
        with mp.workdps(50):
            assert wt.omega_mp(M, 1e10) > 0
        assert counts["exp"] < 20 and counts["log"] < 20
        assert counts["loggamma"] <= 1


@pytest.mark.parametrize("form, q", [(sc.ClosedForm(1.0), 7),
                                     (sc.ClosedForm(0.0, math.log(2.0)), 5),
                                     (sc.ClosedForm(0.5, 0.1), 12)])
def test_omega_mp_tie_takes_the_smaller_index(form, q):
    # at ln t = ln mu_q exactly, terms q and q - 1 are equal: the step is
    # read at q - 1, the rule the best of three kept with its strict >
    import mpmath as mp
    M = sc.WeightSequence("tie", form(np.arange(65)), form)
    with mp.workdps(30):
        logt = form.log_mu_mp(q)
        term, p = wt._omega_step(M, logt)
        assert p == q - 1
        assert term == (q - 1) * logt - form.log_M_mp(q - 1)
        assert abs(term - (q * logt - form.log_M_mp(q))) <= mp.mpf("1e-25") * term


def test_omega_mp_refuses_constant_quotients_at_once(monkeypatch):
    # every ln mu_p of gevrey(0) is 0, so omega is infinite for ln t > 0;
    # the bisection used to double ln p about 1000 times before refusing
    import mpmath as mp
    calls = []

    def counted(*args, _fn=mp.exp, **kwargs):
        calls.append(1)
        return _fn(*args, **kwargs)
    monkeypatch.setattr(mp, "exp", counted)
    for log_t in (0.0, 1.0, 1e300):
        with pytest.raises(UntrustedEvaluationError):
            wt.omega_mp(sc.gevrey(0, P=64), log_t)
    assert wt.omega_mp(sc.gevrey(0, P=64), -1.0) == 0
    assert not calls


def test_omega_mp_refuses_falling_quotients_at_once(monkeypatch):
    # ln mu_p = ln p - 1e-10 (2p - 1) rises over the window and falls past
    # p = 5e9, so omega is infinite at every t > 0 (at ln t = 3 the term at
    # p = 1e12 alone is 7.6e13); the bisection returned 17.66 there and
    # spent 7 s refusing ln t = 1e300
    import mpmath as mp
    calls = []

    def counted(*args, _fn=mp.exp, **kwargs):
        calls.append(1)
        return _fn(*args, **kwargs)
    monkeypatch.setattr(mp, "exp", counted)
    form = sc.ClosedForm(1.0, -1e-10)
    assert form.inverse_mu_mp(mp.mpf(3)) is None
    M = sc.WeightSequence("lc-on-window", form(np.arange(65)), form)
    assert sc.is_log_convex(M)
    for log_t in (-5.0, 3.0, 10.0, 1e300):
        with pytest.raises(PreconditionError, match="fall"):
            wt.omega_mp(M, log_t)
    with pytest.raises(PreconditionError, match="fall"):
        wt.omega_extended(M, 1e30)
    assert wt.omega_mp(M, -math.inf) == 0
    assert not calls


@pytest.mark.parametrize("spec", ["gevrey:0.1", "gevrey:0.5", "qgevrey:2",
                                  "shift:2:1"])
def test_omega_mp_keeps_its_digits_at_15(spec):
    # q ln t - ln M_q cancels about log10(ln p*) digits (16 for gevrey(0.1)
    # at ln t = 1e15); the call raises its own precision to keep them
    import mpmath as mp
    M = _omega_mp_case(spec)
    for log_t in (50.0, 1e10, 1e15):
        with mp.workdps(15):
            low = wt.omega_mp(M, log_t)
        with mp.workdps(60):
            ref = wt.omega_mp(M, log_t)
            assert abs(low - ref) <= mp.mpf("1e-12") * ref


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fn", [wt.omega, wt.counting, wt.omega_extended,
                                wt.integral_representation_residual])
def test_non_finite_arguments_rejected(fn, t):
    with pytest.raises(InvalidSequenceError):
        fn(sc.gevrey(2), t)


EDGE_ARGS = (math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324, 1e-300, 1e300)


def _window_calls(M):
    aw = wt.AssociatedWeight.of(M)
    return {
        "omega": lambda x: wt.omega(M, x).value,
        "counting": lambda x: wt.counting(M, x),
        "omega_extended": lambda x: wt.omega_extended(M, x).value,
        "residual": lambda x: wt.integral_representation_residual(M, x),
        "aw.eval": aw.eval,
        "aw.argmax": aw.argmax,
        "aw.trusted": aw.trusted,
        "valid_to": lambda x: wt.valid_to(M),
        "default_t_grid": lambda x: wt.default_t_grid(M, x),
    }


@pytest.mark.parametrize("M", [sc.gevrey(0.5), sc.gevrey(0.9), sc.qgevrey(2),
                               sc.gevrey(0)], ids=lambda M: M.name)
def test_window_queries_at_edge_arguments(M):
    # each call returns a finite result or raises a WeightSeqError, quietly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, call in _window_calls(M).items():
            for x in EDGE_ARGS:
                try:
                    out = call(x)
                except WeightSeqError:
                    continue
                assert np.all(np.isfinite(out)), (name, x, out)


# ---------------------------------------------------------------------------
# integral representation and counting scaling
# ---------------------------------------------------------------------------

def test_integral_representation():
    for M, t in ((sc.gevrey(2), 50.0), (sc.gevrey(1), 20.0)):
        assert wt.integral_representation_residual(M, t) <= 1e-9
    M = sc.gevrey(2)
    mu1 = float(np.exp(sc.quotients(M)[1]))
    assert wt.integral_representation_residual(M, 0.5 * mu1) == 0.0
    grid = wt.default_t_grid(M, t_min=1.05)
    worst = max(wt.integral_representation_residual(M, float(t))
                for t in grid[grid < wt.valid_to(M) * 0.9])
    assert worst <= 1e-9


def _residual_over_the_whole_window(M, t):
    """The residual as it read every quotient of the window."""
    res = wt.omega(M, t)
    logmu = sc.quotients(M)[1:]
    logt = math.log(t) if t > 0 else -math.inf
    k = int(np.count_nonzero(logmu <= logt))
    upper = np.minimum(logmu[1 : k + 1], logt)
    p = np.arange(1, k + 1, dtype=float)
    return abs(res.value - float(np.sum(p * (upper - logmu[:k]))))


@pytest.mark.parametrize("M", [sc.gevrey(2), sc.gevrey(0.5, P=4096),
                               sc.qgevrey(1.5, P=300),
                               tr.dual(sc.gevrey(2), P_out=5000)], ids=lambda M: M.name)
def test_integral_residual_reads_only_the_window_head(M):
    rng = np.random.default_rng(11)
    for log_t in rng.uniform(-1.0, math.log(wt.valid_to(M)) - 1e-6, 60):
        t = math.exp(log_t)
        assert (wt.integral_representation_residual(M, t)
                == _residual_over_the_whole_window(M, t))


def test_counting_scaling():
    rep = wt.counting_scaling_residual(sc.gevrey(1), 2, 1.0,
                                       np.geomspace(1, 200, 25))
    assert rep.D <= 2.0 and rep.liminf_margin >= -1e-9
    rep2 = wt.counting_scaling_residual(sc.gevrey(2), 2, 1.9,
                                        np.geomspace(1, 5e4, 25))
    assert np.isfinite(rep2.D) and rep2.liminf_margin > 0
    # below mu_1 / k^beta both counts vanish
    rep3 = wt.counting_scaling_residual(sc.gevrey(2), 2, 1.0, [0.2])
    assert rep3.D == 0.0


# ---------------------------------------------------------------------------
# growth gauge
# ---------------------------------------------------------------------------

def test_gauge_constant_bound_fixture():
    ones = sc.custom(np.zeros(65), name="ones")
    gauge = wt.build_gauge(ones)
    assert not gauge.decay_certified
    for t in (1.0, 4.0, 20.0):
        assert gauge.h(t) == pytest.approx(t / 2, abs=1e-9)
        assert gauge.f(t) == pytest.approx(0.25, abs=1e-9)
        assert gauge.g(t) == pytest.approx(0.5, abs=1e-9)
    # the series peaks near k = t/2 = 500, past the 65-entry window
    with pytest.raises(CensoredWindowError, match="not decayed by k=64"):
        gauge.h(1000.0)


def test_gauge_at_the_smallest_subnormal(markin_gauge):
    # t/2 underflows to 0, so ln(t/2) is taken as ln t - ln 2: every term
    # past k = 0 vanishes; a t whose half is subnormal keeps its old path
    assert markin_gauge.h(5e-324) == 0.0
    assert markin_gauge.log_h(math.log(5e-324)) == math.log(1e-300)
    assert markin_gauge.h(1e-323) == 0.0


def test_markin_gauge_growth_and_members():
    members = [sc.gevrey(a) for a in (0.1, 0.5, 0.9)]
    gauge = wt.build_gauge(wt.markin_bound(512), members)
    assert gauge.decay_certified
    assert gauge.g(1e3) < gauge.g(1e4) < gauge.g(1e5)
    assert set(gauge.D_map) == {m.name for m in members}
    # the bound's head: ln a_0 = 0, ln a_2 = -2 ln ln 2
    head = wt.markin_bound(64).logM
    assert head[0] == 0.0
    assert head[2] == pytest.approx(-2 * math.log(math.log(2.0)), abs=1e-12)
    # the 0.9-member peak sits far beyond any window
    assert gauge.D_map["gevrey(0.9)"]["argmax_j"] > 1e12
    # log-domain evaluation is consistent with the direct one
    for t in (200.0, 2000.0):
        assert gauge.log_g(math.log(t)) == pytest.approx(math.log(gauge.g(t)),
                                                         abs=5e-2)


@pytest.mark.parametrize("u", [7.0, 1e3, 1e10])
def test_log_power_bound_deriv_is_the_rate_slope(u):
    bound, h = sc.LogPowerBound(), 1e-4 * u
    central = (bound.rate(u + h) - bound.rate(u - h)) / (2 * h)
    assert bound.deriv(u) == pytest.approx(central, rel=1e-7)


def _exact_peak(x):
    """40-digit max of v + ln(1 - v + ln(x + v)), the Markin model."""
    import mpmath as mp

    with mp.workdps(40):
        X = mp.mpf(x)
        v = mp.findroot(lambda v: v - mp.log(X + v) - 1 / (X + v), mp.log(X) + 1)
        return v + mp.log(1 - v + mp.log(X + v))


def _ternary_peak(x):
    """The same maximum by ternary search on [-5, 2 ln x + 50]."""
    def wv(v):
        psi = 1.0 - v + math.log(x + v)
        return v + math.log(psi) if psi > 0 else -math.inf
    return wv(wt._ternary_max(wv, -5.0, 2.0 * math.log(x) + 50.0, 120))


def test_astronomic_peak_solves_its_stationarity_equation(markin_gauge):
    # 300 log-uniform x, log_g's and log_h's arguments at the pinned ln t,
    # and one x near the top of float range
    rng = np.random.default_rng(0)
    xs = [float(x) for x in np.exp(rng.uniform(math.log(598), math.log(1e15), 300))]
    for log_t in (600.0, 1e4, 1e10, 1e15):
        xs += [log_t - 2 * wt.LN2, log_t - wt.LN2]
    xs.append(1e300)
    worst_solved = worst_ternary = 0.0
    for x in xs:
        exact = _exact_peak(x)
        solved = markin_gauge._astronomic_peak(x)
        assert math.isfinite(solved)
        err = float(abs(solved - exact) / abs(exact))
        assert err <= 2.5e-16, x
        worst_solved = max(worst_solved, err)
        worst_ternary = max(worst_ternary,
                            float(abs(_ternary_peak(x) - exact) / abs(exact)))
    assert worst_solved <= worst_ternary


def test_gauge_rejects_unbounded_member():
    with pytest.raises(PreconditionError):
        wt.build_gauge(wt.markin_bound(512), [sc.qgevrey(2)])


def test_gauge_on_window_only_bound_has_no_astronomic_range():
    # the window of the Markin bound without its generator carries no rate
    gauge = wt.build_gauge(sc.custom(wt.markin_bound(512).logM))
    assert gauge.decay_certified
    for fn in (gauge.log_h, gauge.log_g):
        with pytest.raises(CensoredWindowError):
            fn(1e4)


def test_markin_bound_json_roundtrip(tmp_path):
    B = wt.markin_bound(512)
    path = tmp_path / "bound.json"
    sc.save_sequence(B, path)
    back = sc.load_sequence(path)
    assert back.generator == sc.LogPowerBound()
    assert np.array_equal(back.logM, B.logM)
    assert back.provenance == B.provenance
    again = tmp_path / "again.json"
    sc.save_sequence(back, again)
    assert again.read_text() == path.read_text()
    # the generator rebuilds the window of a block saved without logM
    doc = json.loads(path.read_text())
    del doc["logM"]
    path.write_text(json.dumps(doc))
    bare = sc.load_sequence(path)
    assert bare.generator == sc.LogPowerBound()
    assert np.array_equal(bare.logM, B.logM)
    # past direct summation and past float range, as the builtin bound
    gauge, reloaded = wt.build_gauge(B), wt.build_gauge(back)
    for log_t in (11.0, 13.0, 1e4):
        assert reloaded.log_h(log_t) == gauge.log_h(log_t)
        assert reloaded.log_g(log_t) == gauge.log_g(log_t)


@pytest.fixture(scope="module")
def markin_gauge():
    return wt.build_gauge(wt.markin_bound(512))


GAUGE_CALLS = {
    "h": lambda G, x: G.h(x),
    "log_h": lambda G, x: G.log_h(x),
    "log_g": lambda G, x: G.log_g(x),
    "margin-s": lambda G, x: wt.divergence_margin(sc.gevrey(0.5), G, x, 1.0, [1e3]),
    "margin-d": lambda G, x: wt.divergence_margin(sc.gevrey(0.5), G, 1.0, x, [1e3]),
}


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", sorted(GAUGE_CALLS))
def test_gauge_non_finite_arguments_rejected(markin_gauge, call, x):
    # ln t = -inf is t = 0, which h refuses as before
    with pytest.raises(InvalidSequenceError):
        GAUGE_CALLS[call](markin_gauge, x)


def test_divergence_margin():
    gauge = wt.build_gauge(wt.markin_bound(512), [sc.gevrey(0.5)])
    grid = np.geomspace(1e2, 1e5, 16)
    rep = wt.divergence_margin(sc.gevrey(0.5), gauge, 1.0, 1.0, grid)
    assert rep.margins[-1] > 0
    tail = rep.margins[len(rep.margins) // 2:]
    assert np.all(np.diff(tail) > 0)
    # doubling d leaves the divergence intact
    rep2 = wt.divergence_margin(sc.gevrey(0.5), gauge, 1.0, 2.0, grid)
    assert rep2.margins[-1] > 0
    # inside the zero region of omega the margin is plainly negative
    rep3 = wt.divergence_margin(sc.gevrey(0.5), gauge, 1.0, 1.0, [1.2])
    assert rep3.margins[0] < 0


# ---------------------------------------------------------------------------
# uniform bound construction
# ---------------------------------------------------------------------------

def direct_family(P):
    return sc.small_gevrey_family(P=P, name="small-gevrey-direct")


def test_uniform_bound_k3_succeeds_at_5000():
    res = wt.uniform_bound_construct(direct_family(5000), K=3, P=5000,
                                     params=[0.05, 0.08, 0.28, 0.50])
    assert res.j_breaks[0] == 1 and res.j_breaks[1] == 2
    assert res.j_breaks[-1] <= 5000
    assert res.roots_nonincreasing
    assert res.roots_final <= 0.2
    j = np.arange(1, 5001, dtype=float)
    roots_a = res.a.logM[1:] / j
    for k in range(1, 4):
        n_k = sc.little_m(direct_family(5000).member([0.05, 0.08, 0.28, 0.50][k - 1]))
        ratio = roots_a - n_k.logM[1:] / j
        assert np.all(ratio[res.j_breaks[k] - 1:] >= math.log(k) - 1e-9)
    assert abs(res.a.logM[0]) == 0.0  # a_0 = 1


def test_uniform_bound_k4_succeeds_at_200k():
    res = wt.uniform_bound_construct(direct_family(200_000), K=4, P=200_000,
                                     params=[0.01, 0.02, 0.24, 0.42, 0.56])
    assert res.roots_nonincreasing
    assert res.j_breaks == sorted(res.j_breaks)
    assert len(res.j_breaks) == 5


def test_uniform_bound_window_exhaustion_at_stated_constants():
    # K = 4 inside a 5000 window is infeasible for any small-Gevrey orders:
    # each stage needs (1 - a_k)(B(j_{k+1}) - B(j_k)) > 2 ln k and the
    # accumulated demand exceeds B(5000) = 7.52
    for params in ([0.05, 0.08, 0.28, 0.50, 0.70],
                   [0.01, 0.02, 0.24, 0.42, 0.56],
                   [0.2, 0.4, 0.6, 0.8, 0.95]):
        with pytest.raises(CensoredWindowError):
            wt.uniform_bound_construct(direct_family(5000), K=4, P=5000,
                                       params=params)


def test_uniform_bound_hypothesis_failures_are_named():
    fam_bad = sc.SequenceFamily(
        "shifted", lambda b, P: sc.factorial_shift(sc.gevrey(b), 0.0 * b + 0.0)
        if False else sc.custom(np.full(P + 1, 0.1) * b, name="x"), P=64)
    with pytest.raises(PreconditionError, match=r"\(i\)"):
        wt.uniform_bound_construct(fam_bad, K=1, P=64, params=[0.3, 0.6])
    fam_disord = sc.SequenceFamily(
        "disordered", lambda b, P: sc.gevrey(1.0 - b, P), P=64)
    with pytest.raises(PreconditionError, match=r"\(ii\)"):
        wt.uniform_bound_construct(fam_disord, K=1, P=64, params=[0.3, 0.6])
    fam_big = sc.SequenceFamily("big", lambda b, P: sc.gevrey(1.0 + b, P), P=64)
    with pytest.raises(PreconditionError, match=r"\(iii\)|\(iv\)"):
        wt.uniform_bound_construct(fam_big, K=1, P=64, params=[0.3, 0.6])
