"""Bit-for-bit pins of the fixed-step one-dimensional searches.

The ring thresholds k(n) and the omega values at ln t ~ 1e10-1e15 come out
of ternary searches (log_h, log_g, the member bound record) and
bracket-then-bisect searches (omega_mp, build_counterexample) with fixed
step counts.  Those step counts fix the bytes of the ``verify`` report, so
any change to a search's bracket, step count or midpoint rule shows up
here first.  Floats are pinned via float.hex(), mpf values as 50-digit
strings at 50-digit working precision.
"""

import mpmath as mp
import pytest

from weightseq import gevrey, markin_bound
from weightseq.operator_lab import build_counterexample
from weightseq.weights import _member_bound_record, build_gauge, omega_mp


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
# astronomic range, ln t >= 600, through the rate function
LOG_H_ASTRO = {
    600.0: "0x1.2edb4c22028d1p+9",
    1e4: "0x1.38c424f4965aap+13",
    1e10: "0x1.2a05f20b2a960p+33",
    1e15: "0x1.c6bf52634010dp+49",
}
# 600 still goes through log_h's float range; the rest use offset coordinates
LOG_G = {
    600.0: "0x1.4136c0949de80p+1",
    1e4: "0x1.f4c9fc301a6f2p+1",
    1e10: "0x1.5a3b9fabc5207p+3",
    1e15: "0x1.0938488022dfap+4",
}
OMEGA_MP = {
    0.1: {1e4: "2.80666336041054322369395883610625240510113974643e+43428",
          1e10: "2.1143669141793896274176531608155422109206009698921e+43429448189",
          1e15: "1.0849992114454075265384277361524590616110796645118e+4342944819032517"},
    0.5: {1e4: "3.878002362993430522916020339631750980084034772772e+8685",
          1e10: "5.8077318647752813879172778901449939907813851227543e+8685889637",
          1e15: "2.2608526700068952318958508162951372914061349984659e+868588963806503"},
    0.9: {1e4: "2.8085740504271014958492828091711880834593735066164e+4825",
          1e10: "2.1072067173627767852401275389519727546188389156751e+4825494243",
          1e15: "2.6152014784721545284777605296036273513089114300589e+482549424336946"},
}
# minimal thresholds g(k(n)) >= n: the first three rings are integer k(n)
LOGK_MINIMAL = [
    "0x1.ef8383c50bb75p+1", "0x1.d29e3df5493cfp+3", "0x1.0e4f60d2fae3dp+5",
    "0x1.e9c1a7c1f60afp+5", "0x1.831abbf01c176p+6", "0x1.18d374d7cbe39p+7",
    "0x1.8036146506069p+7", "0x1.f7ada68b226a5p+7",
]
# the demonstration's floor 11, slope 0.05: ln k(n) ~ 1e10, found by bisection
LOGK_FLOOR = [
    "0x1.d84cdb4fb5fd3p+33", "0x1.04fc79e07a9bep+34",
    "0x1.206f349e2b077p+34", "0x1.3ec4f14d268bdp+34",
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
    assert rec["certified"] is True


@pytest.mark.parametrize("alpha", sorted(OMEGA_MP))
def test_omega_mp_pinned(alpha):
    M = gevrey(alpha)
    with mp.workdps(50):
        got = {x: mp.nstr(omega_mp(M, x), 50) for x in OMEGA_MP[alpha]}
    assert got == OMEGA_MP[alpha]


def test_counterexample_thresholds_pinned(gauge):
    model, _ = build_counterexample(gauge, n_terms=8)
    assert [float(v).hex() for v in model.logk] == LOGK_MINIMAL
    assert list(model.integral_k) == [True] * 3 + [False] * 5
    floor_gauge = build_gauge(markin_bound(512), [gevrey(0.5)])
    model, _ = build_counterexample(floor_gauge, n_terms=4,
                                    log_g_floor=11.0, log_g_slope=0.05)
    assert [float(v).hex() for v in model.logk] == LOGK_FLOOR
    assert not model.integral_k.any()
