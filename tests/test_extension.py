import math
import warnings

import numpy as np
import pytest

from weightseq import extension as ex
from weightseq import seqcore as sc
from weightseq import transforms as tr
from weightseq.errors import InvalidSequenceError, UntrustedEvaluationError


def poly_coeffs(vals, signs=None):
    vals = np.asarray(vals, dtype=float)
    with np.errstate(divide="ignore"):
        logs = np.where(vals == 0.0, -np.inf, np.log(np.abs(vals)))
    s = None
    if signs is None:
        s = np.where(vals < 0, -1.0, 1.0)
    return ex.CoefficientFunction(logs, s)


# ---------------------------------------------------------------------------
# coefficient functions
# ---------------------------------------------------------------------------

def test_coefficient_validation():
    with pytest.raises(InvalidSequenceError):
        ex.CoefficientFunction(np.zeros(5))
    with pytest.raises(InvalidSequenceError):
        ex.CoefficientFunction(np.full(12, np.nan))
    with pytest.raises(InvalidSequenceError):
        ex.CoefficientFunction(np.zeros(12), np.zeros(12))


def test_radial_majorant_matches_direct_sum():
    rng = np.random.default_rng(5)
    vals = rng.uniform(0.1, 2.0, 16)
    F = poly_coeffs(vals)
    for t in (0.0, 0.5, 3.0):
        direct = float(np.sum(vals * t ** np.arange(16)))
        assert F.log_radial_majorant(t) == pytest.approx(math.log(direct), abs=1e-12)


def test_lse_edge_cases_and_bits():
    assert ex._lse(np.array([])) == -np.inf
    assert ex._lse(np.full(4, -np.inf)) == -np.inf
    v = np.array([-np.inf, 3.0, -2.5, 700.0, 699.9])
    m = 700.0
    assert ex._lse(v) == m + math.log(float(np.sum(np.exp(v - m))))
    # all coefficients past n + 2 vanish: F^(n+3) is identically 0
    F = poly_coeffs(np.array([1.0, 2.0, 3.0] + [0.0] * 9))
    assert F.derivative_log_abs(3, 0.4) == -np.inf
    assert F.log_radial_majorant(1.0) == pytest.approx(math.log(6.0), abs=1e-15)


@pytest.mark.parametrize("call", [
    lambda F: F.log_radial_majorant(math.inf),
    lambda F: F.log_radial_majorant(math.nan),
    lambda F: F.log_radial_majorant(-1.0),
    lambda F: F.derivative_log_abs(3, math.nan),
    lambda F: F.derivative_log_abs(3, math.inf),
    lambda F: F.derivative_log_abs(3, -math.inf),
    lambda F: ex.CoefficientFunction(np.zeros((10, 10))),
    lambda F: ex.CoefficientFunction(["a"] * 10),
    lambda F: ex.CoefficientFunction(F.logc, signs=["+"] * 12),
], ids=["radius-inf", "radius-nan", "radius-negative", "x-nan", "x-inf",
        "x-minus-inf", "coefficients-2d", "coefficients-non-numeric",
        "signs-non-numeric"])
def test_non_finite_radius_and_point_rejected(call):
    with pytest.raises(InvalidSequenceError):
        call(poly_coeffs(np.linspace(1.0, 2.0, 12)))


def test_derivative_exact_against_polynomial():
    # F(z) = 1 - 2z + 0.5 z^3 + z^5 (padded with zeros)
    vals = np.array([1.0, -2.0, 0.0, 0.5, 0.0, 1.0] + [0.0] * 6)
    F = poly_coeffs(vals)
    # third derivative at x: 3! * 0.5 + 5*4*3 x^2
    for x in (0.0, 0.5, -1.2):
        truth = abs(3.0 + 60.0 * x * x)
        assert F.derivative_log_abs(3, x) == pytest.approx(math.log(truth), abs=1e-10)
    # derivative order beyond the truncation vanishes
    assert F.derivative_log_abs(12, 0.3) == -np.inf


def test_derivative_sign_cancellation():
    # F(z) = 1 - z: F'(x) = -1 for all x; F(1) = 0 exactly
    vals = np.array([1.0, -1.0] + [0.0] * 10)
    F = poly_coeffs(vals)
    assert F.derivative_log_abs(1, 0.7) == pytest.approx(0.0, abs=1e-12)
    assert F.derivative_log_abs(0, 1.0) == -np.inf  # exact cancellation


# ---------------------------------------------------------------------------
# forward majorant
# ---------------------------------------------------------------------------

def test_taylor_majorant_flat_sequence():
    M = sc.gevrey(0)
    for z in (1.0, 5.0, 20.0):
        pair = ex.taylor_majorant(M, 1.0, 1.0, z)
        assert pair.lhs == pytest.approx(math.exp(z), rel=1e-9)
        assert pair.log_lhs <= pair.log_rhs + math.log(1 + 1e-9)


def test_taylor_majorant_zero_point():
    pair = ex.taylor_majorant(sc.gevrey(0.5), 1.0, 3.0, 0.0)
    assert pair.lhs == pytest.approx(3.0, abs=1e-12)
    assert pair.rhs == pytest.approx(6.0, abs=1e-12)


def test_taylor_majorant_grid():
    M = sc.gevrey(0.5, P=50000)
    for h in (0.5, 1.0, 2.0):
        for z in np.geomspace(0.5, 50, 20):
            pair = ex.taylor_majorant(M, h, 1.0, float(z))
            assert pair.log_lhs <= pair.log_rhs + math.log(1 + 1e-9)


def test_taylor_majorant_reads_the_conjugate_without_building_it(monkeypatch):
    M = sc.gevrey(0.25, P=4096)
    Mstar = tr.conjugate(M)
    ref = ex.omega(Mstar, 2.0 * 1.5 * 7.0)

    def refuse(self):
        raise AssertionError("taylor_majorant built a WeightSequence")
    monkeypatch.setattr(sc.WeightSequence, "__post_init__", refuse)
    pair = ex.taylor_majorant(M, 1.5, 1.0, 7.0)
    assert pair.log_rhs == math.log(2.0) + ref.value


def test_reported_values_past_float_range_are_inf():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair = ex.taylor_majorant(sc.gevrey(0.3, P=4096), 1.0, 1.0, 100.0)
        F = ex.CoefficientFunction(np.concatenate([[800.0], np.full(11, -np.inf)]))
        wn = ex.weighted_sup_norm(F, sc.gevrey(1), 1.0, [0.1])
    assert pair.log_rhs > 709.0 and pair.rhs == math.inf
    assert pair.lhs == pytest.approx(math.exp(pair.log_lhs), rel=1e-15)  # still in float range
    assert wn.log_value == 800.0 and wn.value == math.inf


@pytest.mark.parametrize("h, A, z", [
    (math.nan, 1.0, 1.0), (1.0, 1.0, math.nan), (math.inf, 1.0, 1.0),
    (1.0, 1.0, math.inf), (1e200, 1.0, 1e200), (1.0, math.nan, 1.0),
    (1.0, math.inf, 1.0), (0.0, 1.0, 1.0), (1.0, 1.0, -1.0),
], ids=["h-nan", "z-nan", "h-inf", "z-inf", "hz-overflow", "A-nan", "A-inf",
        "h-zero", "z-negative"])
def test_taylor_majorant_rejects_invalid_arguments(h, A, z):
    with pytest.raises(InvalidSequenceError):
        ex.taylor_majorant(sc.gevrey(0.5), h, A, z)


def test_taylor_majorant_refuses_untrusted():
    with pytest.raises(UntrustedEvaluationError) as err:
        ex.taylor_majorant(sc.gevrey(0.5, P=64), 2.0, 1.0, 40.0)
    assert err.value.required_P


@pytest.mark.parametrize("h, z", [(0.5, 5e-324), (1e-200, 1e-200)],
                         ids=["z-subnormal", "hz-underflow"])
def test_taylor_majorant_product_underflowing_to_zero(h, z):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair = ex.taylor_majorant(sc.gevrey(0.5, P=256), h, 1.0, z)
    # every term past k = 0 is below e^-700: lhs = A, rhs = 2A e^omega(~0)
    assert (pair.log_lhs, pair.log_rhs) == (0.0, math.log(2.0))


# ---------------------------------------------------------------------------
# restriction bound
# ---------------------------------------------------------------------------

def test_cauchy_restriction_at_origin():
    Mstar = tr.conjugate(sc.gevrey(0.5))
    F = ex.CoefficientFunction.reciprocal(Mstar)
    rb = ex.cauchy_restriction_bound(F, Mstar, A=2.0, k=2.0, x=0.0, n=10)
    # derivative collapses to n! b_n = n!/M*_n = M_n
    assert rb.log_deriv == pytest.approx(0.5 * math.lgamma(11), abs=1e-9)
    assert rb.log_deriv <= rb.log_bound + math.log(1 + 1e-6)


def test_cauchy_restriction_routes():
    Mstar = tr.conjugate(sc.gevrey(0.5, P=2048))
    F = ex.CoefficientFunction.reciprocal(Mstar)
    small = ex.cauchy_restriction_bound(F, Mstar, A=2.0, k=2.0, x=0.0, n=5)
    assert small.route == "finite-exception" and small.n0 > 0
    big = ex.cauchy_restriction_bound(F, Mstar, A=2.0, k=2.0, x=0.0, n=300)
    assert big.route == "main" and big.log_C == 0.0
    for rb in (small, big):
        assert rb.log_deriv <= rb.log_bound + math.log(1 + 1e-6)


def test_cauchy_restriction_n0_and_certificate():
    Mstar = tr.conjugate(sc.gevrey(0.5, P=2048))
    F = ex.CoefficientFunction.reciprocal(Mstar)
    rb = ex.cauchy_restriction_bound(F, Mstar, A=2.0, k=2.0, x=0.0, n=5)
    # n0 counts quotients below the covering radius: mu*_n/(2k) < 2R
    mus = np.exp(sc.quotients(Mstar)[1:])
    assert rb.n0 == int(np.sum(mus / 4.0 < 2.0))
    with pytest.raises(InvalidSequenceError):
        ex.cauchy_restriction_bound(F, Mstar, A=1e-9, k=2.0, x=0.0, n=5)


def test_cauchy_restriction_past_float_range():
    Q = sc.qgevrey(2, P=2048)  # mu*_p = 2^(2p-1) passes float range at p = 513
    FQ = ex.CoefficientFunction.reciprocal(Q)
    C = tr.conjugate(sc.gevrey(0.5, P=2048))
    one = ex.CoefficientFunction(np.concatenate([[0.0], np.full(11, -np.inf)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rb = ex.cauchy_restriction_bound(FQ, Q, A=2.0, k=2.0, x=0.0, n=5)
        assert rb.route == "main" and math.isfinite(rb.log_bound)
        assert rb.log_deriv <= rb.log_bound + math.log(1 + 1e-6)
        # every mu*_p / (2k) overflows: no exceptional order, a radius at n = 0
        tiny = ex.cauchy_restriction_bound(one, C, A=2.0, k=5e-324, x=0.0, n=0)
        assert tiny.route == "finite-exception" and tiny.n0 == 0
        assert tiny.log_deriv == 0.0 <= tiny.log_bound
        # the Cauchy radius itself is past float range
        with pytest.raises(InvalidSequenceError, match="radius"):
            ex.cauchy_restriction_bound(FQ, Q, A=2.0, k=2.0, x=0.0, n=1500)
        with pytest.raises(InvalidSequenceError, match="radius"):
            ex.cauchy_restriction_bound(one, C, A=2.0, k=5e-324, x=0.0, n=5)


def test_cauchy_restriction_spec_triples():
    for a in (0.0, 0.25, 0.5):
        Mstar = tr.conjugate(sc.gevrey(a, P=2048))
        F = ex.CoefficientFunction.reciprocal(Mstar)
        for n in (5, 10, 20):
            rb = ex.cauchy_restriction_bound(F, Mstar, A=2.0, k=2.0, x=0.5, n=n)
            assert rb.log_deriv <= rb.log_bound + math.log(1 + 1e-6)


# ---------------------------------------------------------------------------
# weighted norms
# ---------------------------------------------------------------------------

def test_weighted_norm_constant_function():
    F = ex.CoefficientFunction(np.concatenate([[0.0], np.full(11, -np.inf)]))
    M = sc.gevrey(1)
    wn = ex.weighted_sup_norm(F, M, 1.0, np.geomspace(0.05, 100, 50))
    assert wn.value == pytest.approx(1.0, abs=1e-12)
    assert wn.at_t <= 1.0  # attained where the weight is still 1


def test_weighted_norm_scale_ordering():
    Mstar = tr.conjugate(sc.gevrey(0.5, P=4096))
    F = ex.CoefficientFunction.reciprocal(Mstar)
    grid = np.geomspace(0.1, 30, 40)
    n1 = ex.weighted_sup_norm(F, Mstar, 1.0, grid)
    n2 = ex.weighted_sup_norm(F, Mstar, 2.0, grid)
    # stronger weight (larger c) shrinks the norm pointwise
    assert n2.log_value <= n1.log_value + 1e-12
    assert n2.value < math.inf


def test_weighted_norm_exponent_and_inclusion():
    Mstar = tr.conjugate(sc.gevrey(0.5, P=4096))
    F = ex.CoefficientFunction.reciprocal(Mstar)
    grid = np.geomspace(0.1, 30, 40)
    e1 = ex.weighted_sup_norm(F, Mstar, 1.0, grid, exponent=1.0)
    e2 = ex.weighted_sup_norm(F, Mstar, 1.0, grid, exponent=2.0)
    assert e2.log_value <= e1.log_value + 1e-12
    # pointwise smaller sequence means larger weight exponent: norms against
    # the smaller sequence dominate
    N = sc.gevrey(0.75, P=4096)
    Mbig = sc.gevrey(1.0, P=4096)
    nn = ex.weighted_sup_norm(F, N, 1.0, grid)
    nm = ex.weighted_sup_norm(F, Mbig, 1.0, grid)
    assert nn.log_value <= nm.log_value + 1e-12


@pytest.mark.parametrize("c, exponent", [
    (0.0, 1.0), (math.nan, 1.0), (1.0, 0.0), (1.0, math.nan), (1.0, math.inf),
], ids=["c-zero", "c-nan", "exponent-zero", "exponent-nan", "exponent-inf"])
def test_weighted_norm_rejects_invalid_scales(c, exponent):
    with pytest.raises(InvalidSequenceError):
        ex.weighted_sup_norm(ex.CoefficientFunction(np.zeros(12)),
                             sc.gevrey(1), c, [0.5, 2.0], exponent=exponent)


def test_weighted_norm_untrusted():
    with pytest.raises(UntrustedEvaluationError):
        ex.weighted_sup_norm(
            ex.CoefficientFunction(np.zeros(12)), sc.gevrey(0.5, P=64), 1.0,
            [100.0])
