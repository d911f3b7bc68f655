import json
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from weightseq import analysis as an
from weightseq import extension as ex
from weightseq import operator_lab as ol
from weightseq import seqcore as sc
from weightseq import transforms as tr
from weightseq import weights as wt
from weightseq.errors import InvalidSequenceError, WeightSeqError

finite_logs = st.lists(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False,
              allow_infinity=False),
    min_size=9, max_size=64)


def test_gevrey_frozen_values():
    G1 = sc.gevrey(1)
    assert G1.logM[5] == pytest.approx(math.log(120), abs=1e-12)
    assert np.all(sc.gevrey(0).logM == 0.0)
    Q = sc.qgevrey(2)
    assert Q.logM[10] == pytest.approx(100 * math.log(2), abs=1e-9)


def test_quotient_frozen_values():
    assert sc.quotients(sc.gevrey(2))[3] == pytest.approx(2 * math.log(3), abs=1e-12)
    assert np.all(sc.quotients(sc.gevrey(0)) == 0.0)
    assert sc.quotients(sc.qgevrey(2))[4] == pytest.approx(7 * math.log(2), abs=1e-9)
    assert sc.quotients(sc.gevrey(1))[0] == 0.0


def test_family_rejections():
    with pytest.raises(InvalidSequenceError):
        sc.qgevrey(1.0)
    with pytest.raises(InvalidSequenceError):
        sc.qgevrey(0.5)
    with pytest.raises(InvalidSequenceError):
        sc.gevrey(-0.1)
    with pytest.raises(InvalidSequenceError):
        sc.custom([0.0, 1.0, np.nan] + [0.0] * 8)
    with pytest.raises(InvalidSequenceError):
        sc.custom([0.0] * 5)  # window too short


def test_make_family_specs():
    assert sc.make_family("gevrey:0.5").name == "gevrey(0.5)"
    assert sc.make_family("qgevrey:2", P=16).P == 16
    with pytest.raises(InvalidSequenceError):
        sc.make_family("nonsense:1")
    with pytest.raises(InvalidSequenceError):
        sc.make_family("justtext")
    # malformed parameters raise InvalidSequenceError, not a bare Python error
    for bad in ("gevrey:abc", "qgevrey:"):
        with pytest.raises(InvalidSequenceError):
            sc.make_family(bad)


def test_generator_consistency_enforced():
    G = sc.gevrey(1)
    bad = G.logM.copy()
    bad[5] += 1e-6
    with pytest.raises(InvalidSequenceError):
        sc.WeightSequence("broken", bad, G.generator)
    # a non-finite coefficient would pass as a generator (NaN compares
    # False); omega_mp would find no step for it
    for a, b in ((math.nan, 0.0), (0.5, math.inf)):
        with pytest.raises(InvalidSequenceError, match="non-finite"):
            sc.ClosedForm(a, b)


def test_closed_form_builtins_evaluate_their_formula():
    p = np.arange(0, 3000, dtype=float)
    for a in (0.0, 0.3, 1.734512, 2.0):
        G = sc.gevrey(a, P=64)
        assert G.generator == sc.ClosedForm(a, 0.0)
        assert np.array_equal(G.generator(p), a * gammaln(p + 1.0))
    for q in (1.2345678, 2.0):
        Q = sc.qgevrey(q, P=64)
        assert Q.generator == sc.ClosedForm(0.0, math.log(q))
        assert np.array_equal(Q.generator(p), p * p * math.log(q))


def test_closed_form_images_under_transforms():
    shifted = sc.factorial_shift(sc.qgevrey(2), 0.5)
    assert shifted.generator == sc.ClosedForm(0.5, math.log(2.0))  # mixed form
    assert tr.conjugate(shifted).generator == sc.ClosedForm(0.5, -math.log(2.0))
    assert sc.little_m(shifted).generator == sc.ClosedForm(-0.5, math.log(2.0))
    assert sc.little_m(sc.gevrey(0.5)).generator == sc.ClosedForm(-0.5, 0.0)
    # window-only sequences and plain generators do not carry a form over
    assert sc.little_m(sc.custom(np.zeros(12))).generator is None


def test_closed_form_quotients_and_mp():
    import mpmath as mp
    f = sc.ClosedForm(0.7, 0.01)
    p = np.arange(1.0, 200.0)
    with mp.workdps(30):
        log_mu = np.array([float(f.log_mu_mp(k)) for k in range(1, 200)])
        for k in (1, 17, 199):
            assert float(f.log_M_mp(k)) == pytest.approx(float(f(k)), rel=1e-14)
        # at p = 1e40 a loggamma difference needs 80 digits for what the
        # direct quotient gives at 30
        big = mp.mpf(10) ** 40
        direct = f.log_mu_mp(big)
    assert np.allclose(log_mu, f(p) - f(p - 1.0), rtol=1e-12, atol=1e-12)
    with mp.workdps(80):
        diff = f.log_M_mp(big) - f.log_M_mp(big - 1)
        assert abs(direct - diff) <= mp.mpf("1e-28") * abs(diff)


def test_generator_tolerance_covers_cancelling_transforms():
    # ln p! - (1 - 1e-6) ln p! rounds on the scale of ln p!, not of the
    # result; the form (1e-6, 0) must still validate against that window
    C = tr.conjugate(sc.gevrey(1 - 1e-6, P=10**5))
    assert C.generator.a == pytest.approx(1e-6, rel=1e-9)
    bad = C.logM.copy()
    bad[5] += 1e-6
    with pytest.raises(InvalidSequenceError):
        sc.WeightSequence("broken", bad, C.generator)


@given(finite_logs)
@settings(max_examples=60)
def test_quotient_roundtrip(logs):
    M = sc.custom(logs)
    back = sc.from_quotients(sc.quotients(M))
    assert np.max(np.abs(back.logM + M.logM[0] - M.logM)) <= 1e-10


@given(finite_logs, st.floats(min_value=-3, max_value=3, allow_nan=False))
@settings(max_examples=60)
def test_factorial_shift_involution(logs, s):
    M = sc.custom(logs)
    back = sc.factorial_shift(sc.factorial_shift(M, s), -s)
    assert np.max(np.abs(back.logM - M.logM)) <= 1e-10


def test_factorial_shift_is_gevrey_shift():
    got = sc.factorial_shift(sc.gevrey(0.5), 0.75)
    assert np.allclose(got.logM, sc.gevrey(1.25).logM, atol=1e-12)
    assert np.allclose(sc.factorial_shift(sc.gevrey(1), -1).logM,
                       sc.gevrey(0).logM, atol=1e-12)
    ident = sc.factorial_shift(sc.gevrey(2), 0.0)
    assert np.allclose(ident.logM, sc.gevrey(2).logM)


def test_little_m():
    assert np.allclose(sc.little_m(sc.gevrey(1)).logM, sc.gevrey(0).logM, atol=1e-12)
    m = sc.little_m(sc.gevrey(0.5))
    assert m.logM[4] == pytest.approx(-0.5 * math.log(24), abs=1e-12)
    twice = sc.little_m(sc.little_m(sc.gevrey(2)))
    assert np.allclose(twice.logM, sc.gevrey(0).logM, atol=1e-11)


# ---------------------------------------------------------------------------
# the shared ln k! table
# ---------------------------------------------------------------------------

def _empty_log_factorials(monkeypatch):
    """Start the process-wide table over for one test; restored after it."""
    table = np.empty(0)
    table.flags.writeable = False
    monkeypatch.setattr(sc, "_LOG_FACTORIALS", table)


def test_log_factorials_match_gammaln_bit_for_bit(monkeypatch):
    _empty_log_factorials(monkeypatch)
    # grow, serve a prefix, grow past it, serve a prefix again
    for P in (2048, 512, 10**5, 3000):
        T = sc.log_factorials(P)
        assert T.shape == (P + 1,)
        assert np.array_equal(T, gammaln(np.arange(P + 1) + 1.0))
    assert sc._LOG_FACTORIALS.size == 10**5 + 1  # grown to the longest, never shrunk


def test_log_factorials_grow_under_concurrent_requests(monkeypatch):
    sizes = list(range(1000, 31_000, 250))  # nearly every request grows the table
    reference = gammaln(np.arange(max(sizes) + 1) + 1.0)
    wrong = []

    def request(chunk):
        for P in chunk:
            if not np.array_equal(sc.log_factorials(P), reference[: P + 1]):
                wrong.append(P)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):  # a lost update shows in some rounds, not in each
            _empty_log_factorials(monkeypatch)
            threads = [threading.Thread(target=request, args=(sizes[i::6],))
                       for i in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
            # a shorter request that lost the race never swapped in a shorter table
            assert sc._LOG_FACTORIALS.size == max(sizes) + 1
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def test_log_factorials_are_read_only():
    T = sc.log_factorials(64)
    with pytest.raises(ValueError):
        T[3] = 0.0
    with pytest.raises(ValueError):
        T.flags.writeable = True
    assert T[3] == gammaln(4.0)


@pytest.mark.parametrize("P", [2**62, -1, 2.5, "64"])
def test_log_factorials_refuse_what_numpy_cannot_index(P):
    with pytest.raises(InvalidSequenceError, match="log_factorials"):
        sc.log_factorials(P)


FACTORIAL_WINDOWS = {
    "gevrey(0.3)": lambda P: sc.gevrey(0.3, P=P),
    "qgevrey(2)": lambda P: sc.qgevrey(2, P=P),
    "custom": lambda P: sc.custom(np.cumsum(np.linspace(-1.0, 3.0, P + 1))),
}


def _factorial_window_outputs(M):
    """Every reader of the table on M, as bytes and reprs."""
    F = ex.CoefficientFunction.reciprocal(M)
    out = [tr.conjugate(M).logM.tobytes(), sc.little_m(M).logM.tobytes(),
           sc.factorial_shift(M, 0.37).logM.tobytes()]
    out += [F.derivative_log_abs(n, x)
            for n in (0, 3, M.P // 2, M.P) for x in (0.0, 0.6, -1.4)]
    for h, A, z in ((0.5, 1.0, 0.2), (1.3, 2.0, 3.0), (2.0, 1.0, 40.0)):
        try:
            out.append(ex.taylor_majorant(M, h, A, z))
        except WeightSeqError as exc:
            out.append(repr(exc))
    return out


@pytest.mark.parametrize("P", [64, 512, 2048])
@pytest.mark.parametrize("family", sorted(FACTORIAL_WINDOWS))
def test_factorial_windows_equal_the_per_call_formula(monkeypatch, family, P):
    M = FACTORIAL_WINDOWS[family](P)
    got = _factorial_window_outputs(M)
    # conjugate reads the table through seqcore._factorial_image
    for mod in (sc, ex):
        monkeypatch.setattr(mod, "log_factorials",
                            lambda PP: sc.log_factorial(np.arange(PP + 1)))
    assert got == _factorial_window_outputs(M)


def test_taylor_majorant_reuses_the_table(monkeypatch):
    M = sc.gevrey(0.4, P=4096)
    _empty_log_factorials(monkeypatch)
    computed = []

    def counted(x):
        computed.append(np.size(x))
        return gammaln(x)
    monkeypatch.setattr(sc, "gammaln", counted)
    first = ex.taylor_majorant(M, 1.0, 1.0, 3.0)
    assert sum(computed) == M.P + 1
    computed.clear()
    assert ex.taylor_majorant(M, 1.0, 1.0, 3.0) == first
    assert sum(computed) == 0


def test_root_sequence():
    R = sc.root_sequence(sc.gevrey(0))
    assert np.allclose(R.logM, 0.0)
    rho = sc.quotients(sc.root_sequence(sc.gevrey(1)))
    assert rho[4] == pytest.approx(math.log(24) / 4, abs=1e-12)
    # root quotients never exceed plain quotients for normalized log-convex M
    for M in (sc.gevrey(1), sc.gevrey(2), sc.qgevrey(2)):
        assert np.all(sc.quotients(sc.root_sequence(M))[1:]
                      <= sc.quotients(M)[1:] + 1e-9)


def test_quotient_window_bracket():
    # for normalized M: min quotient <= logM[p]/p <= max quotient over 1..p
    for M in (sc.gevrey(0.5), sc.gevrey(2), sc.qgevrey(2)):
        logmu = sc.quotients(M)
        for p in (1, 5, 50, M.P):
            window = logmu[1 : p + 1]
            assert window.min() - 1e-9 <= M.logM[p] / p <= window.max() + 1e-9


def test_extended_window():
    G = sc.gevrey(2, P=16)
    big = G.extended(64)
    assert big.P == 64
    assert np.array_equal(big.logM[:17], G.logM)
    assert np.allclose(big.logM, sc.gevrey(2, P=64).logM)
    with pytest.raises(InvalidSequenceError):
        sc.custom([0.0] * 12).extended(24)


def test_json_roundtrip(tmp_path):
    path = tmp_path / "seq.json"
    M = sc.gevrey(0.5, P=32)
    sc.save_sequence(M, path)
    doc = json.loads(path.read_text())
    assert set(doc) >= {"name", "P", "family", "logM"}
    assert doc["family"] == {"type": "gevrey", "params": {"alpha": 0.5}}
    back = sc.load_sequence(path)
    assert np.allclose(back.logM, M.logM)
    assert back.generator is not None  # family regenerated

    C = sc.custom(np.linspace(0, 3, 12), name="bumps")
    sc.save_sequence(C, path)
    back = sc.load_sequence(path)
    assert np.allclose(back.logM, C.logM)

    path.write_text("{not json")
    with pytest.raises(InvalidSequenceError):
        sc.load_sequence(path)


@pytest.mark.parametrize("build", [
    lambda: sc.gevrey(1.734512, P=2048),
    lambda: sc.qgevrey(1.2345678),
    lambda: tr.conjugate(sc.gevrey(0.3)),
    lambda: tr.conjugate(sc.qgevrey(2)),
    lambda: sc.little_m(sc.gevrey(0.5)),
    lambda: sc.little_m(sc.qgevrey(2)),
    lambda: sc.factorial_shift(sc.gevrey(0.5), 0.75),
    lambda: sc.factorial_shift(sc.qgevrey(1.5), -0.25),
], ids=["gevrey7", "qgevrey8", "conj", "conj-q", "m", "m-q", "shift", "shift-q"])
def test_json_roundtrip_keeps_closed_form(tmp_path, build):
    M = build()
    path = tmp_path / "seq.json"
    sc.save_sequence(M, path)
    back = sc.load_sequence(path)
    assert back.generator == M.generator
    assert np.array_equal(back.logM, M.logM)
    assert back.provenance == M.provenance
    again = tmp_path / "again.json"
    sc.save_sequence(back, again)
    assert again.read_text() == path.read_text()


def test_json_reads_older_family_blocks(tmp_path):
    path = tmp_path / "seq.json"
    Q = sc.qgevrey(2.0, P=32)
    path.write_text(json.dumps({
        "name": "q", "P": 32, "family": {"type": "qgevrey", "params": {"q": 2.0}},
        "logM": [float(x) for x in Q.logM]}))
    assert sc.load_sequence(path).generator == Q.generator
    path.write_text(json.dumps({
        "name": "g", "P": 40, "family": {"type": "gevrey", "params": {"alpha": 1.5}}}))
    back = sc.load_sequence(path)
    assert back.P == 40 and np.array_equal(back.logM, sc.gevrey(1.5, P=40).logM)
    path.write_text(json.dumps({
        "name": "c", "P": 10, "family": {"type": "custom", "params": {}},
        "logM": list(range(11)), "provenance": "custom"}))
    assert sc.load_sequence(path).generator is None


def test_json_unknown_family_type_rejected(tmp_path):
    # a typo in the type must not drop the declared generator silently
    path = tmp_path / "seq.json"
    doc = {"name": "c", "P": 10, "family": {"type": "gevrey-typo",
                                            "params": {"alpha": 1.0}},
           "logM": list(range(11))}
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidSequenceError, match="unknown family type 'gevrey-typo'"):
        sc.load_sequence(path)
    # no family block, or a custom one, still loads window-only
    for family in (None, {"type": "custom", "params": {}}):
        doc["family"] = family
        path.write_text(json.dumps(doc))
        assert sc.load_sequence(path).generator is None


def test_json_family_mismatch_rejected(tmp_path):
    path = tmp_path / "seq.json"
    M = sc.gevrey(0.5, P=32)
    sc.save_sequence(M, path)
    doc = json.loads(path.read_text())
    doc["logM"][3] += 0.5
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidSequenceError):
        sc.load_sequence(path)
    # malformed family blocks: missing, non-numeric or non-finite parameter,
    # non-object family or params
    doc["logM"][3] -= 0.5
    for family in ({"type": "gevrey", "params": {}}, {"type": "qgevrey"},
                   {"type": "gevrey", "params": {"alpha": None}},
                   {"type": "closed-form", "params": {"a": 0.5}},
                   {"type": "closed-form", "params": {"a": math.nan, "b": 0.0}},
                   {"type": "closed-form", "params": {"a": 0.5, "b": math.inf}},
                   {"type": "closed-form", "params": {"a": "half", "b": 0.0}},
                   {"type": "gevrey", "params": {"alpha": "half"}},
                   {"type": "gevrey", "params": "alpha"},
                   ["gevrey", 0.5], "gevrey"):
        path.write_text(json.dumps(dict(doc, family=family)))
        with pytest.raises(InvalidSequenceError):
            sc.load_sequence(path)


@pytest.mark.parametrize("doc", [
    {"name": "g", "P": "abc", "family": {"type": "gevrey", "params": {"alpha": 1.5}}},
    {"name": "g", "P": None, "family": {"type": "gevrey", "params": {"alpha": 1.5}}},
    {"name": "g", "P": [40], "family": {"type": "gevrey", "params": {"alpha": 1.5}}},
    {"name": "g", "P": 20.5, "family": {"type": "gevrey", "params": {"alpha": 1.5}}},
    {"name": "c", "P": 10, "logM": ["a"] + list(range(10))},
    {"name": "c", "P": 10, "logM": [[0, 1]] * 11},
    {"name": "c", "P": 10, "logM": {"0": 0}},
])
def test_json_non_numeric_window_rejected(tmp_path, doc):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidSequenceError):
        sc.load_sequence(path)


@pytest.mark.parametrize("call", [
    lambda: wt.default_t_grid(sc.gevrey(2), t_min=math.nan),
    lambda: wt.default_t_grid(sc.gevrey(2), t_min=-1.0),
    lambda: wt.default_t_grid(sc.gevrey(2), t_min=0.0),
    lambda: wt.default_t_grid(sc.gevrey(2), t_min="a"),
    lambda: wt.default_t_grid(sc.gevrey(2), t_min=None),
    lambda: an.matuszewska(sc.quotients(sc.gevrey(1.5, P=64)), p0=0),
    lambda: an.matuszewska(sc.quotients(sc.gevrey(1.5, P=64)), p0=-1),
    lambda: an.matuszewska(sc.quotients(sc.gevrey(1.5, P=64)), p0=1.5),
    lambda: an.matuszewska(["a"] * 64),
    lambda: an.matuszewska(np.zeros((40, 40))),
    lambda: sc.factorial_shift(sc.gevrey(1), math.inf),
    lambda: sc.factorial_shift(sc.gevrey(1), -math.inf),
    # integer arguments: a fraction, NaN or a string is refused, not rounded
    lambda: sc.gevrey(2, P=20.5),
    lambda: sc.gevrey(2, P=math.nan),
    lambda: sc.qgevrey(2, P=20.5),
    lambda: sc.make_family("gevrey:1", P="x"),
    lambda: sc.make_family("gevrey:1", P=20.5),
    lambda: sc.gevrey(2).extended(math.nan),
    lambda: sc.gevrey(2).extended(600.5),
    lambda: tr.dual(sc.gevrey(2), P_out=math.nan),
    lambda: tr.dual(sc.gevrey(2), P_out=20.5),
    lambda: tr.bidual(sc.gevrey(2), P_out=math.nan),
    lambda: tr.bidual(sc.gevrey(2), P_out=20.5),
    lambda: wt.counting_scaling_residual(sc.gevrey(2), 2.5, 1.0, [1.0, 2.0]),
    lambda: wt.counting_scaling_residual(sc.gevrey(2), 2, 1.0, []),
    lambda: wt.counting_scaling_residual(sc.gevrey(0.5, P=256), 2, 1e300, [10.0]),
    lambda: wt.counting_scaling_residual(sc.gevrey(0.5, P=256), 2, math.nan, [10.0]),
    lambda: wt.counting_scaling_residual(sc.gevrey(0.5, P=256), 2, -math.inf, [10.0]),
    lambda: wt.counting_scaling_residual(sc.gevrey(0.5, P=256), 2, "b", [10.0]),
    lambda: wt.markin_bound(64.7),
    lambda: wt.markin_bound(math.nan),
    lambda: wt.markin_bound(1e300),
    lambda: wt.markin_bound(2**70),
    # windows numpy cannot index are refused before anything is allocated
    lambda: sc.gevrey(0.5, P=256).extended(2**70),
    lambda: sc.gevrey(0.5, P=256).extended(2**63 // 8),
    lambda: tr.bidual(sc.gevrey(0.5, P=256), P_out=2**70),
    lambda: sc.qgevrey(2, P=2**62),
    lambda: ex.cauchy_restriction_bound(
        ex.CoefficientFunction.reciprocal(sc.gevrey(1, P=32)),
        tr.conjugate(sc.gevrey(0.5, P=64)), A=2.0, k=2.0, x=0.3, n=2.5),
    lambda: ol.build_counterexample(wt.build_gauge(wt.markin_bound(128)), 2.5),
    lambda: ex.CoefficientFunction.reciprocal(
        sc.gevrey(1, P=32)).derivative_log_abs(2.5, 1.0),
    lambda: sc.small_gevrey_family(P=64).member(0.5, P=64.7),
    lambda: wt.uniform_bound_construct(sc.small_gevrey_family(P=64), K=1, P=64.5,
                                       params=[0.1, 0.5]),
    lambda: wt.uniform_bound_construct(sc.small_gevrey_family(P=64), K=1.5, P=64),
], ids=["grid-nan", "grid-negative", "grid-zero", "grid-string", "grid-none",
        "matuszewska-p0-zero",
        "matuszewska-p0-negative", "matuszewska-p0-fraction",
        "matuszewska-non-numeric", "matuszewska-2d", "shift-inf",
        "shift-minus-inf", "gevrey-P-fraction", "gevrey-P-nan",
        "qgevrey-P-fraction", "make-family-P-string", "make-family-P-fraction",
        "extended-nan", "extended-fraction", "dual-P-nan", "dual-P-fraction",
        "bidual-P-nan", "bidual-P-fraction", "scaling-k-fraction",
        "scaling-empty-grid", "scaling-k-beta-overflow", "scaling-beta-nan",
        "scaling-beta-minus-inf", "scaling-beta-string", "markin-P-fraction",
        "markin-P-nan", "markin-P-huge-float", "markin-P-past-intp",
        "extended-past-intp", "extended-at-intp-bytes", "bidual-P-past-intp",
        "qgevrey-P-past-intp", "cauchy-n-fraction", "counterexample-n-fraction",
        "derivative-n-fraction", "member-P-fraction", "uniform-bound-P-fraction",
        "uniform-bound-K-fraction"])
def test_invalid_arguments_rejected(call):
    with pytest.raises(InvalidSequenceError):
        call()


@pytest.mark.parametrize("logM", [["a"] * 10, [None] * 10, [[0.0, 1.0]] * 10,
                                  [0.0] * 9 + ["1e"]])
def test_custom_non_numeric_rejected(logM):
    with pytest.raises(InvalidSequenceError):
        sc.custom(logM)
    with pytest.raises(InvalidSequenceError):
        sc.WeightSequence("w", logM)


def test_structural_predicates():
    assert sc.is_log_convex(sc.gevrey(2))
    assert sc.is_normalized(sc.gevrey(1))
    assert sc.in_lc_window(sc.gevrey(2))
    assert not sc.in_lc_window(sc.gevrey(0))   # quotients do not diverge
    bumps = sc.custom([0, 1, 0, 3, 4, 5, 6, 7, 8, 9])
    assert not sc.is_log_convex(bumps)


def test_structure_tol_scales_with_the_window():
    # the absolute floor on small windows, 8 ulp of max |ln M_p| on large ones
    assert sc.structure_tol(sc.gevrey(1, P=16)) == sc.STRUCTURE_TOL
    Q = sc.qgevrey(2, P=2048)
    assert sc.structure_tol(Q) == 8 * np.finfo(float).eps * Q.logM[-1]
    assert sc.structure_tol(Q, 1e-3) == 1e-3


def _constant_quotients_with_drop(drop):
    # ln mu_p = 10 for p < 500 and 10 - drop from p = 500 on, P = 1000
    logmu = np.full(1001, 10.0)
    logmu[0] = 0.0
    logmu[500:] -= drop
    return sc.from_quotients(logmu)


def test_is_log_convex_resolves_twice_the_floor():
    flat = _constant_quotients_with_drop(0.0)
    tol = sc.structure_tol(flat)
    assert tol > sc.STRUCTURE_TOL and sc.is_log_convex(flat)
    dropped = _constant_quotients_with_drop(2 * tol)
    assert not sc.is_log_convex(dropped)
    assert an.check_property(dropped, "lc").witness["p"] == 499
    # the stated limit: a drop below the floor is not resolved
    assert sc.is_log_convex(_constant_quotients_with_drop(0.5 * tol))


def test_dual_with_a_count_lowered_is_refused():
    D = tr.dual(sc.gevrey(2), P_out=10_000)
    assert sc.is_log_convex(D)
    logdelta = sc.quotients(D)
    logdelta[5000] = math.log(math.exp(logdelta[5000]) - 1.0)
    mutant = sc.from_quotients(logdelta)
    assert not sc.is_log_convex(mutant)
    assert an.check_property(mutant, "lc").fails
