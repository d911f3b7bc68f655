import json

import numpy as np
import pytest

from weightseq import cli
from weightseq import seqcore as sc


def run(args):
    return cli.main(args)


def test_analyze_gevrey2(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["analyze", "gevrey:2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["properties"]["gamma1"]["status"] == "holds"
    assert doc["properties"]["lc"]["status"] == "holds"
    assert doc["indices"]["quotients_upper"]["hi"] == pytest.approx(2.0, abs=1e-6)


def test_analyze_qgevrey2(tmp_path):
    out = tmp_path / "report.json"
    assert run(["analyze", "qgevrey:2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["properties"]["mg"]["status"] == "fails"
    assert doc["properties"]["quotient-ratio-bound"]["status"] == "holds"
    assert doc["indices"]["quotients_upper"]["unbounded_flag"] is True


def test_analyze_bad_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert run(["analyze", f"file:{bad}"]) == 1


def test_analyze_reports_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["analyze", "gevrey:0.5", "--out", str(a)])
    run(["analyze", "gevrey:0.5", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_transform_chain(tmp_path):
    out = tmp_path / "conj.json"
    assert run(["transform", "gevrey:0.3", "conjugate", "--out", str(out)]) == 0
    T = sc.load_sequence(out)
    assert np.max(np.abs(T.logM - sc.gevrey(0.7).logM)) <= 1e-9


def test_transform_dual_dual(tmp_path):
    out = tmp_path / "bidual.json"
    assert run(["transform", "gevrey:2", "bidual", "--P", "600",
                "--out", str(out)]) == 0
    E = sc.load_sequence(out)
    assert "bidual" in E.name


def test_transform_empty_chain_is_copy(tmp_path):
    out = tmp_path / "copy.json"
    assert run(["transform", "gevrey:0.5", "--out", str(out)]) == 0
    T = sc.load_sequence(out)
    assert np.array_equal(T.logM, sc.gevrey(0.5).logM)


def test_transform_unknown_step(tmp_path, capsys):
    assert run(["transform", "gevrey:0.5", "frobnicate"]) == 1
    # malformed numbers in a spec or a step end in an error line, exit 1
    assert run(["analyze", "gevrey:abc"]) == 1
    assert run(["transform", "gevrey:1", "shift:x"]) == 1
    assert capsys.readouterr().err.count("error: ") == 3


def test_transform_precondition_surfaces(tmp_path):
    # dual of a flat sequence violates the log-convex-with-growth precondition
    assert run(["transform", "gevrey:0", "dual"]) == 2


def test_omega_csv(tmp_path):
    out = tmp_path / "omega.csv"
    assert run(["omega", "gevrey:2", "--points", "16", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "t,omega,argmax,trusted"
    assert len(rows) == 17


def test_verify_conjugate_suite(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert run(["verify", "conjugate", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "[PASS] criterion 1" in text and "[PASS] criterion 2" in text
    doc = json.loads(out.read_text())
    assert all(r["passed"] for r in doc["results"])


def test_verify_markin_small(capsys):
    assert run(["verify", "markin", "--terms", "24"]) == 0
    text = capsys.readouterr().out
    assert "[PASS] criterion 9" in text and "[PASS] criterion 10" in text


def test_verify_unknown_suite():
    assert run(["verify", "nonsense"]) == 1


def test_verify_reports_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["verify", "conjugate", "--seed", "3", "--out", str(a)])
    run(["verify", "conjugate", "--seed", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_verify_omega_suite_reports_known_red(capsys):
    # criterion 8's construction half is infeasible at its stated window
    assert run(["verify", "omega"]) == 2
    text = capsys.readouterr().out
    assert "[PASS] criterion 5" in text
    assert "[FAIL] criterion 8" in text


def test_json_float_format():
    text = cli.dump_report({"x": 1.0 / 3.0, "flag": True, "n": 3})
    assert "0.33333333333333331" in text
    assert '"flag": true' in text
