"""One in-process smoke test per script under scripts/."""

import hashlib
import importlib.util
import pathlib

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(autouse=True)
def _in_tmp(tmp_path, monkeypatch):
    # the scripts write relative to the working directory by default
    monkeypatch.chdir(tmp_path)


def test_markin_demo(tmp_path, capsys):
    out = tmp_path / "rings.csv"
    assert load("markin_demo").main(["--terms", "8", "--csv", str(out)]) == 0
    text = capsys.readouterr().out
    assert "coefficients square-summable: True" in text
    assert "t =  10.0: converged" in text
    assert "gevrey(0.9)" in text and "diverged" in text
    rows = out.read_text().splitlines()
    assert rows[0] == "n,log_k,eps,log_g,log_c" and len(rows) == 9


# md5 of the demo's stdout and CSV.  The --minimal-k stdout dates from
# before the demonstration moved into operator_lab.ring_demonstration; the
# default stdout and the CSV were re-recorded when log_g's astronomic peak
# came to be solved from its stationarity equation (the printed log sum has
# a condition number near ln k ~ 1.6e10, so last-bit changes in ln g show)
@pytest.mark.parametrize("flags, md5", [
    ([], "41ae3f60bd929ea1721a1ec7aa8b0efc"),
    (["--minimal-k"], "06318c618af977a5e5227d71d1791f83"),
])
def test_markin_demo_stdout_pinned(capsys, flags, md5):
    assert load("markin_demo").main(["--terms", "30", *flags]) == 0
    assert hashlib.md5(capsys.readouterr().out.encode()).hexdigest() == md5


def test_markin_demo_csv_pinned(tmp_path):
    out = tmp_path / "rings.csv"
    assert load("markin_demo").main(["--terms", "30", "--csv", str(out)]) == 0
    assert hashlib.md5(out.read_bytes()).hexdigest() == "8d4679436596d0527507311a34b07e35"


def test_omega_profile(tmp_path, capsys):
    assert load("omega_profile").main(["--outdir", str(tmp_path)]) == 0
    text = capsys.readouterr().out
    for spec in ("gevrey:0.5", "gevrey:1", "gevrey:2", "qgevrey:2"):
        assert spec in text
        rows = (tmp_path / (spec.replace(":", "_") + ".csv")).read_text().splitlines()
        assert rows[0] == "t,omega,argmax,trusted" and len(rows) > 10


def test_uniform_bound_windows(capsys):
    assert load("uniform_bound_windows").main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert ["EXHAUSTED" in line for line in lines] == [False, True, True, False]
    assert lines[1].startswith("K=4 P=   5000 orders=[0.05, 0.08, 0.28, 0.5, 0.7]: EXHAUSTED")
    assert "stages at j = [1, 2, 61, 1212, 198083]" in lines[3]
