import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from weightseq import seqcore as sc
from weightseq import transforms as tr
from weightseq.errors import InvalidSequenceError

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
    assert sc.quotients(sc.gevrey(2)).logmu[3] == pytest.approx(2 * math.log(3), abs=1e-12)
    assert np.all(sc.quotients(sc.gevrey(0)).logmu == 0.0)
    assert sc.quotients(sc.qgevrey(2)).logmu[4] == pytest.approx(7 * math.log(2), abs=1e-9)
    assert sc.quotients(sc.gevrey(1)).logmu[0] == 0.0


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
    for bad in ("gevrey:abc", "qgevrey:", {"type": "gevrey", "params": {}},
                {"type": "qgevrey"}, {"type": "gevrey", "params": {"alpha": "x"}},
                {"type": "gevrey", "params": {"alpha": None}},
                {"type": "gevrey", "params": [0.5]}):
        with pytest.raises(InvalidSequenceError):
            sc.make_family(bad)


def test_generator_consistency_enforced():
    G = sc.gevrey(1)
    bad = G.logM.copy()
    bad[5] += 1e-6
    with pytest.raises(InvalidSequenceError):
        sc.WeightSequence("broken", bad, G.generator)


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
    f = sc.qgevrey(2).generator.shift(0.5)  # mixed form a = 0.5, b = ln 2
    assert f == sc.ClosedForm(0.5, math.log(2.0))
    assert tr.conjugate(sc.factorial_shift(sc.qgevrey(2), 0.5)).generator == f.conjugate()
    assert f.conjugate() == sc.ClosedForm(0.5, -math.log(2.0))
    assert f.little_m() == sc.ClosedForm(-0.5, math.log(2.0))
    assert sc.little_m(sc.gevrey(0.5)).generator == sc.ClosedForm(-0.5, 0.0)
    # window-only sequences and plain generators do not carry a form over
    assert sc.little_m(sc.custom(np.zeros(12))).generator is None


def test_closed_form_quotients_and_mp():
    import mpmath as mp
    f = sc.ClosedForm(0.7, 0.01)
    p = np.arange(1.0, 200.0)
    assert np.allclose(f.log_mu(p), f(p) - f(p - 1.0), rtol=1e-12, atol=1e-12)
    with mp.workdps(30):
        for k in (1, 17, 199):
            assert float(f.log_M_mp(k)) == pytest.approx(float(f(k)), rel=1e-14)
            assert float(f.log_mu_mp(k)) == pytest.approx(float(f.log_mu(k)), rel=1e-14)
        # at p = 1e40 a loggamma difference needs 80 digits for what the
        # direct quotient gives at 30
        big = mp.mpf(10) ** 40
        direct = f.log_mu_mp(big)
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
    back = sc.from_quotients(sc.quotients(M).logmu, logM0=float(M.logM[0]))
    assert np.max(np.abs(back.logM - M.logM)) <= 1e-10


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


def test_root_sequence():
    R = sc.root_sequence(sc.gevrey(0))
    assert np.allclose(R.logM, 0.0)
    rho = sc.quotients(sc.root_sequence(sc.gevrey(1))).logmu
    assert rho[4] == pytest.approx(math.log(24) / 4, abs=1e-12)
    # root quotients never exceed plain quotients for normalized log-convex M
    for M in (sc.gevrey(1), sc.gevrey(2), sc.qgevrey(2)):
        assert np.all(sc.quotients(sc.root_sequence(M)).logmu[1:]
                      <= sc.quotients(M).logmu[1:] + 1e-9)


def test_quotient_window_bracket():
    # for normalized M: min quotient <= logM[p]/p <= max quotient over 1..p
    for M in (sc.gevrey(0.5), sc.gevrey(2), sc.qgevrey(2)):
        logmu = sc.quotients(M).logmu
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


def test_json_family_mismatch_rejected(tmp_path):
    path = tmp_path / "seq.json"
    M = sc.gevrey(0.5, P=32)
    sc.save_sequence(M, path)
    doc = json.loads(path.read_text())
    doc["logM"][3] += 0.5
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidSequenceError):
        sc.load_sequence(path)
    # malformed family blocks: missing or non-numeric parameter, non-object
    # family or params
    doc["logM"][3] -= 0.5
    for family in ({"type": "gevrey", "params": {}},
                   {"type": "closed-form", "params": {"a": 0.5}},
                   {"type": "closed-form", "params": {"a": "half", "b": 0.0}},
                   {"type": "gevrey", "params": {"alpha": "half"}},
                   {"type": "gevrey", "params": "alpha"},
                   ["gevrey", 0.5], "gevrey"):
        path.write_text(json.dumps(dict(doc, family=family)))
        with pytest.raises(InvalidSequenceError):
            sc.load_sequence(path)


def test_structural_predicates():
    assert sc.is_log_convex(sc.gevrey(2))
    assert sc.is_normalized(sc.gevrey(1))
    assert sc.in_lc_window(sc.gevrey(2))
    assert not sc.in_lc_window(sc.gevrey(0))   # quotients do not diverge
    bumps = sc.custom([0, 1, 0, 3, 4, 5, 6, 7, 8, 9])
    assert not sc.is_log_convex(bumps)
