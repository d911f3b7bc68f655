"""Bit-for-bit pins of the one-dimensional searches and of omega_mp.

The ring thresholds k(n) and the omega values at ln t ~ 1e10-1e15 come out
of ternary searches with fixed step counts (log_h in float range, the
member bound record), of the fixed point of the astronomic peak's
stationarity equation (log_h and log_g past float range), of a
bracket-then-bisect search (build_counterexample), and of omega_mp's
inverse quotient, which stays within 1e-9 of the bisection oracle in
tests/_omega_oracle.py and below it by no more than rounding (1e-40).
These fix the bytes of the ``verify`` report, so any change to a search's
bracket, step count, midpoint rule or iteration shows up here first.
Floats are pinned via float.hex(), mpf values as 50-digit strings at
50-digit working precision.
"""

import hashlib
import math

import mpmath as mp
import pytest

from weightseq import gevrey, markin_bound
from weightseq.operator_lab import (MP_DPS, RING_ORDERS, T_WEIGHTED,
                                    build_counterexample, ring_demonstration)
from weightseq.weights import (_member_bound_record, _omega_step, build_gauge,
                               omega_mp)

from _omega_oracle import _omega_mp_bisect


@pytest.fixture(scope="module")
def gauge():
    return build_gauge(markin_bound(512))


# float-range Laplace maximisation, 12 <= ln t < 600
LOG_H_FLOAT = {
    12.5: "0x1.cf6e32d90cdc1p+3",
    40.0: "0x1.588f41de9da4ep+5",
    250.0: "0x1.fdb1eeec16795p+7",
    599.0: "0x1.2e5b15e681026p+9",
}
# astronomic range, ln t >= 600: x + the offset-coordinate peak log_g uses
LOG_H_ASTRO = {
    600.0: "0x1.2edb4c22028d2p+9",
    1e4: "0x1.38c424f4965abp+13",
    1e10: "0x1.2a05f20b2a960p+33",
    1e15: "0x1.c6bf52634010ep+49",
}
# 600 still goes through log_h's float range; the rest use offset coordinates
LOG_G = {
    600.0: "0x1.4136c0949de80p+1",
    1e4: "0x1.f4c9fc301a6f4p+1",
    1e10: "0x1.5a3b9fabc5207p+3",
    1e15: "0x1.0938488022dfap+4",
}
# the term at the inverse quotient's p*; at alpha = 0.5, ln p* = 2 ln t is
# an integer the oracle's dyadic midpoints hit, so those pins are its own
OMEGA_MP = {
    0.1: {1e4: "2.8066633604105432236939588361062524051011397459966e+43428",
          1e10: "2.1143669141793896274188102230251941023149292009017e+43429448189",
          1e15: "1.0849992114510806174967544830306489132777709796796e+4342944819032517"},
    0.5: {1e4: "3.878002362993430522916020339631750980084034772772e+8685",
          1e10: "5.8077318647752813879172778901449939907813851227543e+8685889637",
          1e15: "2.2608526700068952318958508162951372914061349984659e+868588963806503"},
    0.9: {1e4: "2.8085740504271014958492828091711881181268577563907e+4825",
          1e10: "2.1072067173627767852401297666021534116235732076196e+4825494243",
          1e15: "2.6152014784723648495218245876643115160382962473241e+482549424336946"},
}
# minimal thresholds g(k(n)) >= n: the first three rings are integer k(n)
LOGK_MINIMAL = [
    "0x1.ef8383c50bb75p+1", "0x1.d29e3df5493cfp+3", "0x1.0e4f60d2fae3dp+5",
    "0x1.e9c1a7c1f60afp+5", "0x1.831abbf01c176p+6", "0x1.18d374d7cbe39p+7",
    "0x1.8036146506069p+7", "0x1.f7ada68b226a5p+7",
]
# the demonstration's floor 11, slope 0.05: ln k(n) ~ 1e10, found by bisection
LOGK_FLOOR = [
    "0x1.d84cdb4fb5fb6p+33", "0x1.04fc79e07a9bep+34",
    "0x1.206f349e2b077p+34", "0x1.3ec4f14d268aap+34",
]


@pytest.mark.parametrize("log_t", sorted(LOG_H_FLOAT))
def test_log_h_float_range_pinned(gauge, log_t):
    assert gauge.log_h(log_t).hex() == LOG_H_FLOAT[log_t]


@pytest.mark.parametrize("log_t", sorted(LOG_H_ASTRO))
def test_log_h_astronomic_pinned(gauge, log_t):
    assert gauge.log_h(log_t).hex() == LOG_H_ASTRO[log_t]


@pytest.mark.parametrize("log_t", sorted(LOG_G))
def test_log_g_pinned(gauge, log_t):
    assert gauge.log_g(log_t).hex() == LOG_G[log_t]


def test_member_bound_record_pinned():
    rec = _member_bound_record(gevrey(0.9), markin_bound(512))
    assert rec["log_D"].hex() == "0x1.4b173dd23e740p+48"
    assert rec["argmax_j"].hex() == "0x1.1e0cde0fdfd52p+52"


@pytest.mark.parametrize("alpha", sorted(OMEGA_MP))
def test_omega_mp_pinned(alpha):
    M = gevrey(alpha)
    with mp.workdps(50):
        got = {x: omega_mp(M, x) for x in OMEGA_MP[alpha]}
        assert {x: mp.nstr(v, 50) for x, v in got.items()} == OMEGA_MP[alpha]
        for x, v in got.items():
            ref = _omega_mp_bisect(M, mp.mpf(x))[0]
            assert v >= ref * (1 - mp.mpf("1e-40"))
            assert abs(v - ref) <= mp.mpf("1e-9") * ref


def test_counterexample_thresholds_pinned(gauge):
    model, _ = build_counterexample(gauge, n_terms=8)
    assert [float(v).hex() for v in model.logk] == LOGK_MINIMAL
    assert list(model.integral_k) == [True] * 3 + [False] * 5
    floor_gauge = build_gauge(markin_bound(512), [gevrey(0.5)])
    model, _ = build_counterexample(floor_gauge, n_terms=4,
                                    log_g_floor=11.0, log_g_slope=0.05)
    assert [float(v).hex() for v in model.logk] == LOGK_FLOOR
    assert not model.integral_k.any()


def test_ring_weights_pinned():
    # criterion 9's 2160 weights: every (term, p) of omega_mp's step search
    # at ln t + ln lambda_i, members outer, T_WEIGHTED, then the 120 lambdas
    loglam = ring_demonstration(120).model.loglam
    lines = []
    with mp.workdps(MP_DPS):
        for alpha in RING_ORDERS:
            M = gevrey(alpha)
            for t in T_WEIGHTED:
                for v in loglam:
                    term, p = _omega_step(M, math.log(t) + float(v))
                    lines.append(f"{term!r} {mp.nstr(p, 60)}")
    assert len(lines) == 2160
    digest = hashlib.md5("\n".join(lines).encode()).hexdigest()
    assert digest == "8d13f465607bc1f2fdc0f64ddb07afae"
