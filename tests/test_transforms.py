import hashlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightseq import cli
from weightseq import seqcore as sc
from weightseq import transforms as tr
from weightseq.errors import (CensoredWindowError, InconclusiveTailError,
                              InvalidSequenceError, PreconditionError,
                              UntrustedEvaluationError, WeightSeqError)
from weightseq.weights import markin_bound

finite_logs = st.lists(
    st.floats(min_value=-40.0, max_value=40.0, allow_nan=False,
              allow_infinity=False),
    min_size=9, max_size=48)


# ---------------------------------------------------------------------------
# conjugate
# ---------------------------------------------------------------------------

def test_conjugate_gevrey_pairing():
    for a in (0.0, 0.25, 0.5):
        got = tr.conjugate(sc.gevrey(a))
        assert np.max(np.abs(got.logM - sc.gevrey(1 - a).logM)) <= 1e-9


def test_conjugate_fixed_point():
    G = sc.gevrey(0.5)
    assert np.max(np.abs(tr.conjugate(G).logM - G.logM)) <= 1e-12


@given(finite_logs)
@settings(max_examples=60)
def test_conjugate_involution(logs):
    M = sc.custom(logs)
    back = tr.conjugate(tr.conjugate(M))
    assert np.max(np.abs(back.logM - M.logM)) <= 1e-10


def test_conjugate_involution_qgevrey():
    Q = sc.qgevrey(2)
    assert np.max(np.abs(tr.conjugate(tr.conjugate(Q)).logM - Q.logM)) <= 1e-10


@given(finite_logs, finite_logs)
@settings(max_examples=40)
def test_conjugate_order_reversal(a, b):
    n = min(len(a), len(b))
    lo = np.minimum(a[:n], b[:n])
    hi = np.maximum(a[:n], b[:n])
    Mlo, Mhi = sc.custom(lo), sc.custom(hi)
    cl, ch = tr.conjugate(Mlo), tr.conjugate(Mhi)
    assert np.all(ch.logM <= cl.logM + 1e-12)


def test_conjugate_moderate_growth_transfer():
    # for log-convex M with M_0 = 1 the conjugate gains the doubling bound
    ln2 = math.log(2)
    for M in (sc.gevrey(0.25, P=128), sc.gevrey(1, P=128), sc.qgevrey(2, P=128)):
        Ms = tr.conjugate(M).logM
        for p in range(0, 65):
            for q in range(0, 65):
                assert Ms[p + q] <= (p + q) * ln2 + Ms[p] + Ms[q] + 1e-9


def test_conjugate_quotient_identity():
    M = sc.gevrey(0.3)
    mu = sc.quotients(M)
    mus = sc.quotients(tr.conjugate(M))
    p = np.arange(1, M.P + 1)
    assert np.max(np.abs(mus[1:] - (np.log(p) - mu[1:]))) <= 1e-9


# ---------------------------------------------------------------------------
# dual / bidual
# ---------------------------------------------------------------------------

def brute_dual_quotients(N, P_out):
    """Independent oracle: linear-scan counting of quotients <= p."""
    nu = np.exp(sc.quotients(N)[1:])
    nu1 = nu[0]
    delta = np.ones(P_out + 1)
    for p in range(1, P_out):
        if p >= nu1 - 1e-9:
            delta[p + 1] = max(int(np.sum(nu <= p * (1 + 1e-12) + 1e-12)), 1)
    return delta


def test_dual_gevrey2_against_oracle():
    G2 = sc.gevrey(2, P=64)
    D = tr.dual(G2, P_out=500)
    got = np.rint(np.exp(sc.quotients(D))).astype(int)
    want = brute_dual_quotients(G2, 500).astype(int)
    assert np.array_equal(got, want)
    # closed form floor(sqrt(p)) for delta_{p+1}
    for p in range(1, 500):
        assert got[p + 1] == max(math.isqrt(p), 1)
    assert got[5] == 2 and got[10] == 3
    assert math.exp(D.logM[5]) == pytest.approx(2.0, abs=1e-12)


def test_dual_head_and_lc():
    # the counts are integers: at P_out = 10 000 their logs sum to ~4e4, and
    # the log-convexity floor must sit above the rounding of that sum
    cases = [(M, 200) for M in (sc.gevrey(1), sc.gevrey(2), sc.gevrey(3),
                                sc.qgevrey(2))]
    cases += [(M, 10_000) for M in (sc.gevrey(2), sc.gevrey(3), sc.qgevrey(2))]
    for M, P_out in cases:
        D = tr.dual(M, P_out=P_out)
        assert D.logM[0] == 0.0 and D.logM[1] == 0.0
        assert sc.is_log_convex(D)
        assert sc.in_lc_window(D)


def test_dual_gevrey1_is_shifted_factorial():
    D = tr.dual(sc.gevrey(1), P_out=300)
    from scipy.special import gammaln
    p = np.arange(1, 301)
    assert np.max(np.abs(D.logM[1:] - gammaln(p))) <= 1e-9


def test_dual_rejects_bad_input():
    with pytest.raises(PreconditionError):
        tr.dual(sc.custom([0, 1, 0, 3, 4, 5, 6, 7, 8, 9]))
    with pytest.raises(PreconditionError):
        tr.dual(sc.gevrey(0))  # quotients do not diverge
    with pytest.raises(CensoredWindowError):
        tr.dual(sc.gevrey(2, P=16), P_out=10_000)  # counts would censor
    # an explicit P_out below 8 is the caller's error, not the input's
    with pytest.raises(InvalidSequenceError,
                       match=r"^dual: window length P_out must be an integer >= 8, got 5$"):
        tr.dual(sc.gevrey(2), P_out=5)
    with pytest.raises(InvalidSequenceError,
                       match=r"^bidual: window length P_out must be an integer >= 8, got 5$"):
        tr.bidual(sc.gevrey(2), P_out=5)
    # the input's counting range (512^0.3 = 6.5) cuts the default window
    # below 8: the input is blamed
    with pytest.raises(CensoredWindowError, match="supports only p <= 6; enlarge"):
        tr.dual(sc.gevrey(0.3, P=512))


def test_dual_past_float_range():
    # mu_p of qgevrey(2) passes 1e308 inside the window: those quotients are
    # inf and exceed every count, without a warning; the 200 000-entry
    # window is the one recorded before the warnings were silenced
    D = tr.dual(sc.qgevrey(2, P=600))
    assert D.P == tr.WINDOW_CAP
    assert hashlib.md5(D.logM.tobytes()).hexdigest() == "8fabc670fe389b7b8a523a04beca7786"


def _counted_logs_whole(values, P_out):
    """_counted_logs' former rule, with every temporary at full length:
    values within relative 1e-9 of an integer are snapped to it, then
    counted.  The reference off the edges p(1 + 1e-9)."""
    with np.errstate(over="ignore", invalid="ignore"):
        nearest = np.rint(values)
        snapped = np.where(
            np.abs(values - nearest) <= 1e-9 * np.maximum(1.0, np.abs(nearest)),
            nearest, values)
    ps = np.arange(1, P_out, dtype=float)
    counts = np.searchsorted(snapped, ps, side="right").astype(float)
    logkappa = np.zeros(P_out + 1)
    active = ps >= values[0]
    logkappa[2:][active] = np.log(np.maximum(counts[active], 1.0))
    return np.concatenate([[0.0], np.cumsum(logkappa[1:])])


def _off_the_edges(values):
    """values at least 1e-12 (relative) away from every threshold p(1 + 1e-9),
    where the threshold rule and the snap may round differently."""
    edge = np.rint(values) * (1.0 + 1e-9)
    return values[np.abs(values - edge) > 1e-12 * values]


@pytest.mark.parametrize("n, P_out, lo, draws", [(9, 40, 0.5, 1500),
                                                 (9, 40, 7.3, 1500),
                                                 (196625, 5000, 0.5, 2),
                                                 (131072, 196608, 2.0, 2)],
                         ids=["9-40-0.5", "9-40-7.3", "196625-5000-0.5",
                              "131072-196608-2.0"])
def test_counted_logs_match_the_snap_reference(n, P_out, lo, draws):
    # integers with relative noise up to 3e-9 (inside the tolerance or not),
    # plain reals and an infinite tail: off the edges, counting against
    # p(1 + 1e-9) is the snap to integers within relative 1e-9
    rng = np.random.default_rng(n + P_out)
    for _ in range(draws):
        ints = np.rint(rng.uniform(lo, P_out, n // 2))
        noisy = ints * (1.0 + rng.uniform(-3e-9, 3e-9, ints.size))
        values = np.concatenate([noisy, rng.uniform(lo, P_out, n - n // 2)])
        values = np.sort(_off_the_edges(values))
        values[-2:] = np.inf
        assert np.array_equal(tr._counted_logs(values, P_out),
                              _counted_logs_whole(values, P_out))


def _kappa(values, P_out):
    """The counts kappa_0..kappa_P_out that _counted_logs takes logs of."""
    return np.rint(np.exp(np.diff(tr._counted_logs(values, P_out),
                                  prepend=0.0))).astype(int)


def test_counted_logs_threshold_edge():
    edge = 5 * (1.0 + 1e-9)
    above = np.nextafter(edge, np.inf)
    # kappa_{p+1} counts the values <= p(1 + 1e-9)
    assert list(_kappa(np.array([1.0, 2.0, edge, 9.0]), 12)[5:8]) == [2, 3, 3]
    assert list(_kappa(np.array([1.0, 2.0, above, 9.0]), 12)[5:8]) == [2, 2, 3]


def test_counted_logs_exact_first_value_and_infinities():
    # nu_1 = 3 exactly: kappa_{p+1} = 1 for p < 3, and p = 3 counts nu_1
    got = _kappa(np.array([3.0, 3.0, 4.0, 6.0, 6.0]), 10)
    assert list(got) == [1, 1, 1, 1, 2, 3, 3, 5, 5, 5, 5]
    # inf exceeds every count; all-inf values leave every kappa at 1
    assert list(_kappa(np.array([1.0, 2.0, np.inf, np.inf]), 10)) == \
        [1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2]
    assert np.array_equal(tr._counted_logs(np.full(6, np.inf), 10),
                          np.zeros(11))


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_counted_logs_memory():
    # no copy of the values; the counts are formed in place
    few = np.arange(1.0, 4003.0)
    assert _traced_peak(lambda: tr._counted_logs(few, 10**6)) <= 17 * 10**6
    many = np.linspace(1.0, 3000.0, 10**6)
    assert _traced_peak(lambda: tr._counted_logs(many, 2000)) <= 10**6


@pytest.mark.parametrize("N", [sc.gevrey(0.5, P=4096), sc.gevrey(1, P=512),
                               sc.gevrey(2, P=64), sc.gevrey(2, P=600),
                               sc.qgevrey(2, P=600)],
                         ids=["gevrey0.5", "gevrey1", "gevrey2-64", "gevrey2-600",
                              "qgevrey2"])
def test_dual_default_window_is_counting_range(N):
    assert tr.dual(N).P == min(tr._counting_range(N), tr.WINDOW_CAP)


@pytest.mark.parametrize("N, P_out, digest", [
    # criterion 3's input
    (sc.gevrey(2, P=128).extended(2048), 2000, "b0bb99c143d64221b3ba751e45557874"),
    (sc.gevrey(2, P=600), 500, "39c5d935e183228f06de200481a52917"),
    (sc.gevrey(1, P=300), 200, "6987a7c52cab5691d863af9691a6ebd1"),
    (sc.gevrey(1.5, P=600), 500, "699c1bb9fdde5459220be23dd3c63fee"),
], ids=["gevrey2-2000", "gevrey2-500", "gevrey1-200", "gevrey1.5-500"])
def test_bidual_bytes_pinned(N, P_out, digest):
    # recorded when bidual still made its own outer count
    E = tr.bidual(N, P_out=P_out)
    assert E.P == P_out
    assert E.name == f"bidual[{N.name}]"
    assert E.provenance == f"transform:bidual({N.provenance})"
    assert hashlib.md5(E.logM.tobytes()).hexdigest() == digest


def test_dual_quotients_shrink_bidual_restores():
    D = tr.dual(sc.gevrey(2), P_out=4000)
    delta = np.exp(sc.quotients(D))
    p = np.arange(1, 4001)
    ratio = delta[1:] / p
    assert ratio[-1] < 0.05 and ratio[-1] < ratio[10]
    E = tr.bidual(sc.gevrey(2, P=600), P_out=500)
    eps = np.exp(sc.quotients(E))
    er = eps[1:] / np.arange(1, 501)
    assert er[-1] > er[10] > 0  # growth restored


def test_bidual_gevrey2_equivalence():
    E = tr.bidual(sc.gevrey(2, P=600), P_out=500)
    want = sc.gevrey(2, P=500)
    p = np.arange(2, 501)
    sup = np.max(np.abs(E.logM[2:] - want.logM[2:]) / p)
    assert sup <= math.log(4)
    assert E.logM[0] == 0.0 and E.logM[1] == 0.0
    # squares make the bidual of this sequence exact, not just equivalent
    assert np.max(np.abs(E.logM - want.logM)) <= 1e-9


def test_bidual_refusals():
    # nu_21 = 2^41 of qgevrey(2): the inner dual would need 2^41 + 2 entries
    with pytest.raises(CensoredWindowError, match="inner dual window"):
        tr.bidual(sc.qgevrey(2), P_out=20)
    # the inner dual needs nu_64 + 2 = 4098 counts, and a window-only input
    # cannot grow its counting range (4096) through a generator
    window_only = sc.custom(sc.gevrey(2, P=64).logM)
    with pytest.raises(CensoredWindowError, match="stops below 4098") as err:
        tr.bidual(window_only, P_out=63)
    assert err.value.required_P == 128


@pytest.mark.parametrize("make, P_out", [
    (lambda: sc.gevrey(0), None),
    (lambda: markin_bound(512), None),
    (lambda: sc.gevrey(0.06), 2000),
], ids=["gevrey0", "markin_bound", "gevrey0.06-2000"])
def test_bidual_doubling_stops_at_the_window_cap(make, P_out):
    # the counting range grows too slowly (or never): the doubling is
    # refused before its window passes WINDOW_CAP, in a few MB
    N = make()

    def call():
        with pytest.raises(CensoredWindowError, match="stops below 8") as err:
            tr.bidual(N, P_out=P_out)
        assert tr.WINDOW_CAP < err.value.required_P <= 2 * tr.WINDOW_CAP

    assert _traced_peak(call) < 16 * 2**20


def test_bidual_refuses_past_the_window_cap_before_building():
    # a window ending at P_out + 1 must double once, and 2 (10^6 + 1)
    # passes WINDOW_CAP: refused without the 8 MB window
    def call():
        with pytest.raises(CensoredWindowError, match="stops below") as err:
            tr.bidual(sc.gevrey(2), P_out=10**6)
        assert err.value.required_P == 2 * (10**6 + 1)

    assert _traced_peak(call) < 2**20


def test_bidual_inner_window_past_the_ceiling_is_censored():
    # nu_10000 = 5e7 - 0.5 puts the inner window at 50 000 001, one past
    # DUAL_CEILING: a censored window, not an argument the caller chose
    a = math.log(5e7 - 0.5) / math.log(1e4)
    with pytest.raises(CensoredWindowError, match="inner dual window 50000001"):
        tr.bidual(sc.gevrey(a), P_out=9999)


def test_bidual_gevrey02_against_integer_counts():
    # nu_2001 = 2001^0.2 = 4.6, so the inner dual has its least window, 8:
    # delta_1 = 1 and delta_{q+1} = #{i : i^0.2 <= q} = q^5 for q = 1..7
    E = tr.bidual(sc.gevrey(0.2), P_out=2000)
    delta = [1] + [q**5 for q in range(1, 8)]
    eps = [sum(d <= p for d in delta) for p in range(1, 2000)]
    got = np.rint(np.exp(sc.quotients(E)[2:])).astype(int)
    assert E.P == 2000 and list(got) == eps
    want = np.concatenate([[0.0, 0.0], np.cumsum(np.log(eps))])
    assert np.max(np.abs(E.logM - want)) <= 1e-9


@pytest.mark.parametrize("P_out", [tr.DUAL_CEILING + 1, 10**9])
def test_dual_window_ceiling(P_out):
    # qgevrey(2)'s counting range is 2^62: only the ceiling bounds P_out,
    # and it refuses before anything of that size is allocated
    Q = sc.qgevrey(2)

    def call():
        with pytest.raises(InvalidSequenceError, match="exceeds DUAL_CEILING"):
            tr.dual(Q, P_out=P_out)

    assert _traced_peak(call) < 2**20


def test_bidual_gevrey1_head():
    # counting pushes the shifted factorial back: eps_{p+1} = p + 1 exactly
    E = tr.bidual(sc.gevrey(1, P=300), P_out=200)
    assert np.max(np.abs(E.logM - sc.gevrey(1, P=200).logM)) <= 1e-9
    eps = np.rint(np.exp(sc.quotients(E))).astype(int)
    assert all(eps[q] == q for q in range(2, 200))


# ---------------------------------------------------------------------------
# regularization / head normalization
# ---------------------------------------------------------------------------

def test_regularize_identity_when_already_decreasing():
    M = sc.gevrey(0.5)
    reg = tr.regularize_almost_decreasing(M)
    assert reg.H == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(reg.L.logM - M.logM)) <= 1e-10


def test_regularize_dual_gevrey2():
    D = tr.dual(sc.gevrey(2), P_out=2000)
    reg = tr.regularize_almost_decreasing(D)
    lam = np.exp(sc.quotients(reg.L))
    mu = np.exp(sc.quotients(D))
    p = np.arange(1, 2001, dtype=float)
    assert np.all(np.diff(lam[1:] / p) <= 1e-12)
    assert np.all(lam[1:] <= mu[1:] * (1 + 1e-12))
    assert np.all(lam[1:] >= mu[1:] / reg.H * (1 - 1e-12))
    assert reg.L.logM[0] == 0.0
    assert reg.H > 1.0


def test_regularize_extends_to_the_last_rise():
    # mu_q/q of this ClosedForm(2, -1e-3) rises until q* = 1/(2e-3) = 500:
    # the window is extended once to 500, with H as before
    M = sc.factorial_shift(tr.conjugate(sc.qgevrey(math.exp(1e-3), P=256)), 1)
    reg = tr.regularize_almost_decreasing(M)
    assert reg.L.P == 500 and reg.H == 184.30796815171487
    lam = np.exp(sc.quotients(reg.L))
    mu = np.exp(sc.quotients(M.extended(500)))
    p = np.arange(1, 501, dtype=float)
    assert np.all(np.diff(lam[1:] / p) <= 1e-12)
    assert np.all(lam[1:] <= mu[1:] * (1 + 1e-12))
    assert np.all(lam[1:] >= mu[1:] / reg.H * (1 - 1e-12))
    # with the peak at q* = 5e5, past WINDOW_CAP, nothing is extended
    far = sc.factorial_shift(tr.conjugate(sc.qgevrey(math.exp(1e-6), P=256)), 1)
    with pytest.raises(InconclusiveTailError, match="peaks at q = 500000, past WINDOW_CAP"):
        tr.regularize_almost_decreasing(far)


@pytest.mark.parametrize("a, b", [
    (a, b) for a in (-0.5, 0, 0.5, 1, 1.5, 2, 3) for b in (0, -1e-3, -0.1)
    if not b == 0 < a - 1])  # b = 0 < a - 1: mu_q/q tends to infinity
def test_regularize_finite_closed_form_tails(a, b):
    form = sc.ClosedForm(a, b)
    M = sc.WeightSequence("cf", form(np.arange(257)), form)
    reg = tr.regularize_almost_decreasing(M)
    # q* = (a - 1)/(-2b) is the last rise of ln(mu_q/q) = (a-1) ln q + b(2q-1)
    P = max(256, math.ceil((a - 1) / (-2 * b))) if a > 1 else 256
    assert reg.L.P == P
    lam = np.exp(sc.quotients(reg.L))
    mu = np.exp(sc.quotients(M.extended(P)))
    p = np.arange(1, P + 1, dtype=float)
    assert np.all(np.diff(lam[1:] / p) <= 1e-12)
    assert np.all(lam[1:] <= mu[1:] * (1 + 1e-12))
    assert np.all(lam[1:] >= mu[1:] / reg.H * (1 - 1e-12))


def _record_extended(monkeypatch):
    calls = []
    extended = sc.WeightSequence.extended
    monkeypatch.setattr(sc.WeightSequence, "extended",
                        lambda self, P_new: calls.append(P_new) or extended(self, P_new))
    return calls


_CF = sc.ClosedForm(0.9, 1e-4)


@pytest.mark.parametrize("M", [
    sc.gevrey(1.7, P=1024), sc.qgevrey(2, P=1024),
    # mu_q/q falls until q = 500 and then rises: the window 0..512 looks
    # resolved (its block maxima decrease), but the sup is infinite
    sc.WeightSequence("cf", _CF(np.arange(513)), _CF),
], ids=["gevrey1.7", "qgevrey2", "closed-form-0.9-1e-4"])
def test_regularize_refuses_an_infinite_tail_at_once(M, monkeypatch):
    # mu_q/q of these closed forms tends to infinity: refused from the form,
    # with no window extension
    calls = _record_extended(monkeypatch)
    with pytest.raises(InconclusiveTailError,
                       match=r"^regularize: tail sup of mu_q/q unresolved within window "
                             rf"of {re.escape(M.name)}; mu_q/q of its closed form "
                             "tends to infinity$"):
        tr.regularize_almost_decreasing(M)
    assert calls == []


@pytest.mark.parametrize("P", [2048, 10**5])
def test_regularize_gevrey1_reads_its_form(P, monkeypatch):
    # mu_q/q = 1: the window's sup is exact, so no window is extended, and
    # H is 1 up to the rounding of ln M_p (8.2e-10 at P = 1e5, where
    # ln M_P ~ 1.05e6 has an ulp of 2.3e-10)
    calls = _record_extended(monkeypatch)
    M = sc.gevrey(1, P=P)
    reg = tr.regularize_almost_decreasing(M)
    assert calls == [] and reg.L.P == P
    assert 0.0 <= math.log(reg.H) <= sc.structure_tol(M)


@pytest.mark.parametrize("M, H, md5", [
    (sc.gevrey(1, P=512), 1.0000000000015143, "47276405fad08c906ce1705c94707e95"),
    (sc.gevrey(0.999999, P=512), 1.0, "02a8faded027ab6a1228f1b9964864ab"),
], ids=["gevrey1", "gevrey0.999999"])
def test_regularize_resolved_windows_keep_their_output(M, H, md5):
    # recorded while unresolved windows were still doubled
    reg = tr.regularize_almost_decreasing(M)
    assert reg.H == H and reg.L.P == 512
    assert hashlib.md5(reg.L.logM.tobytes()).hexdigest() == md5


def test_regularize_inconclusive_tail():
    # quotients mu_p/p increasing without bound: the tail sup never resolves
    with pytest.raises(InconclusiveTailError):
        tr.regularize_almost_decreasing(sc.custom(sc.gevrey(2).logM))


def test_normalize_head_forced_example():
    # quotients (1, .5, .8, 1.2, 2, ...): indices up to 2 get flattened to 1
    lam = np.concatenate([[0.0], np.log([0.5, 0.8, 1.2, 2.0]),
                          np.log(2.0) * np.ones(8)])
    L = sc.from_quotients(lam, name="dip")
    hn = tr.normalize_head(L)
    got = np.exp(sc.quotients(hn.L)[:6])
    assert np.allclose(got, [1, 1, 1, 1.2, 2, 2], atol=1e-12)
    assert hn.p0 == 2
    assert hn.log_c == pytest.approx(-math.log(0.5) - math.log(0.8), abs=1e-12)
    gap = hn.L.logM - L.logM
    assert np.all(gap >= -1e-12) and np.all(gap <= hn.log_c + 1e-12)


def test_normalize_head_identity():
    G = sc.gevrey(2)
    hn = tr.normalize_head(G)
    assert hn.p0 == 0 and hn.log_c == 0.0
    assert np.array_equal(hn.L.logM, G.logM)


def test_normalize_head_errors():
    lam = np.concatenate([[0.0], np.log(0.5) * np.ones(10)])
    never = sc.from_quotients(lam, name="never-one")
    with pytest.raises(PreconditionError):
        tr.normalize_head(never)
    with pytest.raises(PreconditionError):
        tr.normalize_head(sc.custom([0, 1, 0, 3, 4, 5, 6, 7, 8, 9]))


# ---------------------------------------------------------------------------
# log-convex minorant
# ---------------------------------------------------------------------------

def brute_hull(y):
    """Oracle: highest convex function below the points, via support lines."""
    n = len(y)
    out = np.full(n, -np.inf)
    for i in range(n):
        for j in range(i + 1, n):
            # chord through (i, y_i), (j, y_j); admissible if below all points
            x = np.arange(n, dtype=float)
            line = y[i] + (y[j] - y[i]) * (x - i) / (j - i)
            if np.all(line <= y + 1e-12):
                out = np.maximum(out, line)
    out = np.minimum(out, y)
    return out


def test_hull_forced_example():
    y = np.array([0.0, 1.0, 0.0, 3.0, 10.0, 20.0, 40.0, 80.0, 160.0])
    M = sc.custom(y, name="spike")
    got = tr.log_convex_minorant(M).logM
    assert np.allclose(got[:4], [0.0, 0.0, 0.0, 3.0], atol=1e-12)
    assert np.allclose(got, brute_hull(y), atol=1e-9)


def test_hull_identity_on_convex():
    G = sc.gevrey(2, P=32)
    assert np.max(np.abs(tr.log_convex_minorant(G).logM - G.logM)) <= 1e-12


def test_hull_of_noisy_gevrey_is_log_convex():
    rng = np.random.default_rng(0)
    G = sc.gevrey(1.5, P=2048)
    noisy = sc.custom(G.logM + 1e-3 * rng.standard_normal(G.P + 1))
    H = tr.log_convex_minorant(noisy)
    assert sc.is_log_convex(H)
    assert np.all(H.logM <= noisy.logM)


@given(finite_logs)
@settings(max_examples=50)
def test_hull_properties(logs):
    M = sc.custom(logs)
    H = tr.log_convex_minorant(M)
    assert np.all(H.logM <= M.logM + 1e-9)
    d2 = H.logM[:-2] + H.logM[2:] - 2 * H.logM[1:-1]
    assert np.all(d2 >= -1e-9)
    again = tr.log_convex_minorant(H)
    assert np.max(np.abs(again.logM - H.logM)) <= 1e-9
    assert np.allclose(H.logM, brute_hull(np.asarray(logs, dtype=float)),
                       atol=1e-8)


# ---------------------------------------------------------------------------
# every pair of transforms
# ---------------------------------------------------------------------------

def _sweep_inputs():
    P = 256
    noisy = sc.gevrey(1.5, P=P).logM + np.random.default_rng(7).normal(0, 0.05, P + 1)
    # two with ln H of regularize past float range: a closed form whose
    # mu_q/q rises up to q* = 49 950 (ln H ~ 9.8e3), and a window whose
    # ln(mu_q/q) steps from 0 to 900 at q = 20 and then falls slowly
    peaked = sc.ClosedForm(1000.0, -0.01)
    p = np.arange(1, P + 1)
    stepped = np.log(p) + np.where(p < 20, 0.0, 900.0 - 1e-6 * (p - 20))
    return ([sc.gevrey(a, P=P) for a in (0, 0.06, 0.3, 1, 2)]
            + [sc.qgevrey(q, P=P) for q in (1.05, 2)]
            + [sc.custom(noisy), sc.custom(sc.gevrey(2, P=P).logM),
               markin_bound(P),
               sc.WeightSequence("peaked", peaked(np.arange(P + 1)), peaked),
               sc.custom(np.concatenate([[0.0], np.cumsum(stepped)]))])


_SWEEP_STEPS = list(cli._TRANSFORMS) + ["shift:0.5", "shift:-2"]


def test_required_P_names_a_window_the_input_lacks():
    for M in _sweep_inputs():
        for step in _SWEEP_STEPS:
            try:
                cli._apply_transform(M, step)
            except (CensoredWindowError, UntrustedEvaluationError) as exc:
                assert exc.required_P is None or exc.required_P > M.P, (M.name, step)
            except WeightSeqError:
                pass


def test_transform_pairs_end_finite_or_refused():
    # every ordered pair of the CLI's transforms on each input: a finite
    # window or a WeightSeqError, never another exception or a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for M in _sweep_inputs():
            for first in _SWEEP_STEPS:
                try:
                    A = cli._apply_transform(M, first)
                except WeightSeqError:
                    continue
                assert np.all(np.isfinite(A.logM))
                for second in _SWEEP_STEPS:
                    try:
                        B = cli._apply_transform(A, second)
                    except WeightSeqError:
                        continue
                    assert np.all(np.isfinite(B.logM)), (M.name, first, second)
