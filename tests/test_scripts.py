"""One in-process smoke test per script under scripts/."""

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
