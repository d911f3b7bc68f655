import hashlib
import json
import math
import re
from pathlib import Path

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


def _perturbed_file(path):
    rng = np.random.default_rng(2048)
    logM = sc.gevrey(0.9, P=2048).logM.copy()
    logM[1:] += 0.02 * rng.uniform(size=2048)
    doc = {"name": "perturbed-gevrey-0.9", "P": 2048,
           "family": {"type": "custom", "params": {}},
           "logM": [float(x) for x in logM], "provenance": "custom"}
    path.write_text(json.dumps(doc))
    return f"file:{path}"


# md5 of the analyze reports recorded with the (P+1)^2 all-pairs window
# constant of mg; the linear-memory scan must reproduce their bytes
@pytest.mark.parametrize("spec,md5", [
    ("gevrey:1.5 --P 2048", "dffcd55c7bcb84e4d945bd43c0557a04"),
    ("qgevrey:2", "b1501cf718cf564ff1cefddd1c877361"),
    ("perturbed", "40b9f496b905813b54e43aa359ce0371"),
])
def test_analyze_reports_pinned(tmp_path, spec, md5):
    args = [_perturbed_file(tmp_path / "in.json")] if spec == "perturbed" else spec.split()
    out = tmp_path / "report.json"
    assert run(["analyze", *args, "--out", str(out)]) == 0
    assert hashlib.md5(out.read_bytes()).hexdigest() == md5


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


def test_transform_dual_of_dual(tmp_path):
    # the dual's integer counts pass the log-convexity floor of its own window
    out = tmp_path / "dd.json"
    assert run(["transform", "gevrey:2", "dual", "dual", "--P", "600",
                "--out", str(out)]) == 0
    assert sc.load_sequence(out).name == "dual[dual[gevrey(2)]]"


def test_transform_empty_chain_is_copy(tmp_path):
    out = tmp_path / "copy.json"
    assert run(["transform", "gevrey:0.5", "--out", str(out)]) == 0
    T = sc.load_sequence(out)
    assert np.array_equal(T.logM, sc.gevrey(0.5).logM)


def test_transform_unknown_step(tmp_path, capsys):
    assert run(["transform", "gevrey:2", "sideways"]) == 1
    assert capsys.readouterr().err == (
        "error: unknown transform 'sideways'; known: conjugate, dual, bidual, "
        "regularize, normalize-head, lcm, m, root, shift:s\n")
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


def test_verify_markin_report_pinned(tmp_path):
    # recorded before criterion 9 moved onto operator_lab.ring_demonstration
    out = tmp_path / "markin.json"
    run(["verify", "markin", "--seed", "0", "--terms", "40", "--out", str(out)])
    assert hashlib.md5(out.read_bytes()).hexdigest() == "162475d9a9fdfd360a02da0561909926"


# md5 of `weightseq verify all --seed 0 --out ...` since the seed commit;
# the same constant gates the benchmark's verify_all output check
VERIFY_SEED0_MD5 = "bde513e13a58b24cc0a20aa11dd6c0ed"


def test_verify_all_report_pinned(tmp_path):
    out = tmp_path / "verify.json"
    run(["verify", "all", "--seed", "0", "--out", str(out)])
    assert hashlib.md5(out.read_bytes()).hexdigest() == VERIFY_SEED0_MD5


def test_verify_pin_matches_the_benchmark_tripwire():
    # read as text: the benchmark package is not importable from here
    text = (Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py").read_text()
    pins = re.findall(r'^VERIFY_SEED0_MD5 = "([0-9a-f]{32})"$', text, re.M)
    assert pins == [VERIFY_SEED0_MD5], (
        "perfbench/oracles.py's VERIFY_SEED0_MD5 is the benchmark's seed-0 "
        "tripwire: verify_all fails every run of seed 0 (collect.py runs seeds "
        "0-9) when it differs from the bytes pinned here; move both together")


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


# ---------------------------------------------------------------------------
# sequence files: the indent-1 layout with floats in shortest repr
# ---------------------------------------------------------------------------

def _custom_file(path):
    logM = [0.9 * math.lgamma(p + 1) + 0.02 * ((7919 * p) % 13) / 13
            for p in range(513)]
    doc = {"name": "custom-é\"q", "P": 512,
           "family": {"type": "custom", "params": {}},
           "logM": logM, "provenance": "custom"}
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return f"file:{path}"


# md5 of the files json.dump(doc, indent=1) wrote; save_sequence must keep
# these bytes
@pytest.mark.parametrize("args,md5", [
    ("gevrey:0.6 --P 2048", "b74f7557f7b6ccc66341c04131d937f5"),
    ("qgevrey:1.7 conjugate m --P 512", "277ad6ec30a0e5b0eaceba2e8b5f65de"),
    ("gevrey:1.5 dual --P 512", "b6358f25ee1fd955144cbc9a8941ee1b"),
    ("custom lcm", "a3157a74178ab856eddb2f9807bffa61"),
    ("custom lcm shift:0.5", "29f7583958d2c652cbee022cdde1742d"),
])
def test_sequence_files_pinned(tmp_path, args, md5):
    args = args.split()
    if args[0] == "custom":
        args[0] = _custom_file(tmp_path / "in.json")
    out = tmp_path / "out.json"
    assert run(["transform", *args, "--out", str(out)]) == 0
    assert hashlib.md5(out.read_bytes()).hexdigest() == md5


@pytest.mark.parametrize("args,what", [
    (["transform", "gevrey:0.5", "conjugate"], "sequence"),
    (["analyze", "gevrey:0.5"], "report"),
    (["omega", "gevrey:0.5"], "CSV"),
])
def test_unwritable_output_is_an_error_line(tmp_path, capsys, args, what):
    out = tmp_path / "missing" / "out"
    assert run([*args, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {what} file {out}: ")


@pytest.mark.parametrize("flags,msg", [
    (["--points", "-3"], "--points must be >= 0, got -3"),
    (["--t-max", "-1"], "--t-max must be finite and > 0, got -1.0"),
    (["--t-min", "inf"], "--t-min must be finite and > 0, got inf"),
    (["--t-min", "0"], "--t-min must be finite and > 0, got 0.0"),
])
def test_omega_refuses_bad_grid_arguments(tmp_path, capsys, flags, msg):
    out = tmp_path / "omega.csv"
    assert run(["omega", "gevrey:0.5", *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: omega: {msg}\n"
    assert not out.exists()


def test_omega_zero_points_is_an_empty_table(tmp_path):
    out = tmp_path / "omega.csv"
    assert run(["omega", "gevrey:0.5", "--points", "0", "--out", str(out)]) == 0
    assert out.read_bytes() == b"t,omega,argmax,trusted\r\n"


@pytest.mark.parametrize("args", [["analyze", "gevrey:1e308"],
                                  ["transform", "gevrey:0.5", "shift:1e308"]])
def test_overflowing_window_is_refused_without_a_warning(capsys, args):
    # tier-1 turns warnings into errors, so an overflow warning fails here
    assert run(args) == 1
    assert capsys.readouterr().err == "error: non-finite logM entry at p=4\n"


def test_omega_writes_positive_zero(tmp_path):
    out = tmp_path / "o.csv"
    assert run(["omega", "gevrey:0.5", "--t-min", "1e-300", "--points", "2",
                "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "9.9999999999999995e-07,0,0,True"


@pytest.mark.parametrize("args, family", [
    (["transform", "gevrey:0.5"], "gevrey"), (["analyze", "qgevrey:2"], "qgevrey"),
    (["omega", "gevrey:0.5"], "gevrey")], ids=["transform", "analyze", "omega"])
def test_window_past_the_ceiling_is_an_error_line(capsys, args, family):
    # refused before numpy is asked for the 745 GiB of P = 10^11
    assert run(args + ["--P", "100000000000"]) == 1
    assert capsys.readouterr().err == (
        f"error: {family}: window length P = 100000000000 exceeds "
        f"DUAL_CEILING = {sc.DUAL_CEILING}\n")


def test_reused_parser_matches_fresh_parsers(tmp_path, capsys):
    out = tmp_path / "out.json"
    calls = [["transform", "gevrey:0.5", "conjugate", "--P", "1024", "--out", str(out)],
             ["transform", "gevrey:0.5", "--bogus"],
             ["--help"],
             ["analyze", "gevrey:0.5", "--out", str(out)]]

    def outcome(argv):
        code = run(argv)
        return code, capsys.readouterr(), out.read_bytes() if out.exists() else None

    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(outcome(argv))
        out.unlink(missing_ok=True)
    cli.build_parser.cache_clear()
    reused = []
    for argv in calls:
        reused.append(outcome(argv))
        out.unlink(missing_ok=True)
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 1, 0, 0]
    assert json.loads(reused[3][2])["P"] == 512
