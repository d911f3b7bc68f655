import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightseq import seqcore as sc
from weightseq import transforms as tr
from weightseq.errors import (CensoredWindowError, InconclusiveTailError,
                              PreconditionError)

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
    with pytest.raises(CensoredWindowError, match="supports only p <= 5"):
        tr.dual(sc.gevrey(2), P_out=5)  # shorter than a sequence may be


def test_dual_past_float_range():
    # mu_p of qgevrey(2) passes 1e308 inside the window: those quotients are
    # inf and exceed every count, without a warning; the 200 000-entry
    # window is the one recorded before the warnings were silenced
    D = tr.dual(sc.qgevrey(2, P=600))
    assert D.P == tr.DUAL_WINDOW_CAP
    assert hashlib.md5(D.logM.tobytes()).hexdigest() == "8fabc670fe389b7b8a523a04beca7786"


def _counted_logs_whole(values, P_out):
    """_counted_logs with every temporary built at full length: its
    reference."""
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


@pytest.mark.parametrize("n, P_out, lo", [(9, 40, 0.5), (9, 40, 7.3),
                                          (3 * tr._BLOCK + 17, 5000, 0.5),
                                          (2 * tr._BLOCK, 3 * tr._BLOCK, 2.0)])
def test_counted_logs_in_blocks_match_whole_arrays(n, P_out, lo):
    # integers with last-bit noise (snapped or not), plain reals, and an
    # infinite tail, over several snapping blocks
    rng = np.random.default_rng(n + P_out)
    ints = np.rint(rng.uniform(lo, P_out, n // 2))
    noisy = ints * (1.0 + rng.uniform(-3e-9, 3e-9, ints.size))
    values = np.sort(np.concatenate([noisy, rng.uniform(lo, P_out, n - n // 2)]))
    values[-2:] = np.inf
    assert np.array_equal(tr._counted_logs(values, P_out),
                          _counted_logs_whole(values, P_out))


@pytest.mark.parametrize("N", [sc.gevrey(0.5, P=4096), sc.gevrey(1, P=512),
                               sc.gevrey(2, P=64), sc.gevrey(2, P=600),
                               sc.qgevrey(2, P=600)],
                         ids=["gevrey0.5", "gevrey1", "gevrey2-64", "gevrey2-600",
                              "qgevrey2"])
def test_dual_default_window_is_counting_range(N):
    assert tr.dual(N).P == min(tr._counting_range(N), tr.DUAL_WINDOW_CAP)


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
    # mu_21 = 2^41 of qgevrey(2): the inner dual would need e^28.4 entries
    with pytest.raises(CensoredWindowError, match="inner dual window"):
        tr.bidual(sc.qgevrey(2), P_out=20)
    # the inner dual needs nu_64 + 2 = 4098 counts, and a window-only input
    # cannot grow its counting range (4096) through a generator
    window_only = sc.custom(sc.gevrey(2, P=64).logM)
    with pytest.raises(CensoredWindowError, match="stops below 4098") as err:
        tr.bidual(window_only, P_out=63)
    assert err.value.required_P == 128


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


def test_regularize_doubles_the_window():
    # mu_q/q of this ClosedForm(2, -1e-3) peaks at q = 500: its tail sup is
    # resolved only after two doublings of the window
    M = sc.factorial_shift(tr.conjugate(sc.qgevrey(math.exp(1e-3), P=256)), 1)
    reg = tr.regularize_almost_decreasing(M)
    assert reg.L.P == 1024
    lam = np.exp(sc.quotients(reg.L))
    mu = np.exp(sc.quotients(M.extended(1024)))
    p = np.arange(1, 1025, dtype=float)
    assert np.all(np.diff(lam[1:] / p) <= 1e-12)
    assert np.all(lam[1:] <= mu[1:] * (1 + 1e-12))
    assert np.all(lam[1:] >= mu[1:] / reg.H * (1 - 1e-12))
    # with the peak at q = 5e5, eight doublings (P = 65536) fall short
    far = sc.factorial_shift(tr.conjugate(sc.qgevrey(math.exp(1e-6), P=256)), 1)
    with pytest.raises(InconclusiveTailError):
        tr.regularize_almost_decreasing(far)


@pytest.mark.parametrize("M", [sc.gevrey(1.7, P=1024), sc.qgevrey(2, P=1024)],
                         ids=["gevrey1.7", "qgevrey2"])
def test_regularize_refuses_an_infinite_tail_at_once(M, monkeypatch):
    # mu_q/q of these closed forms tends to infinity, so no doubling of the
    # window could resolve its sup
    calls = []
    extended = sc.WeightSequence.extended
    monkeypatch.setattr(sc.WeightSequence, "extended",
                        lambda self, P_new: calls.append(P_new) or extended(self, P_new))
    with pytest.raises(InconclusiveTailError,
                       match=r"^regularize: tail sup of mu_q/q unresolved within window "
                             rf"of {re.escape(M.name)}; "):
        tr.regularize_almost_decreasing(M)
    assert calls == []


_CF = sc.ClosedForm(0.9, 1e-4)


@pytest.mark.parametrize("M, H, md5", [
    (sc.gevrey(1, P=512), 1.0000000000015143, "47276405fad08c906ce1705c94707e95"),
    (sc.gevrey(0.999999, P=512), 1.0, "02a8faded027ab6a1228f1b9964864ab"),
    # mu_q/q -> infinity, but its window is resolved (decreasing) on 0..512
    (sc.WeightSequence("cf", _CF(np.arange(513)), _CF), 1.0000283477398388,
     "d7689c9e41a84e9c879fa8116fc54c6c"),
], ids=["gevrey1", "gevrey0.999999", "closed-form-0.9-1e-4"])
def test_regularize_resolved_windows_keep_their_output(M, H, md5):
    # recorded before closed forms with infinite tails were refused at once
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
