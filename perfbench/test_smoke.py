"""Smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py     # from the repository root

Runs every workload in its short ``--smoke`` mode, twice with tracing off
and twice with tracing on, and checks that every metric BENCHMARK.json
declares is emitted with its unit, that no op fails, and that the outcome
counts repeat exactly.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(cwd, workload, trace, *extra):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def smoke(workload, trace):
    proc = bench(ROOT, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(record_line)["record"], json.loads(result_line)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke(workload, trace):
    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    runs = [smoke(workload, trace) for _ in range(2)]
    for record, result in runs:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, record["failures"]
        assert record["fail_ratio"] == 0.0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    (rec_a, res_a), (rec_b, res_b) = runs
    assert rec_a["outcomes"] == rec_b["outcomes"]
    assert res_a["attempted"] == res_b["attempted"]
    if trace:
        counted = [n for n, unit in declared.items() if unit in ("count", "bytes")]
        assert ({n: res_a["metrics"][n]["value"] for n in counted}
                == {n: res_b["metrics"][n]["value"] for n in counted})
        assert res_a["metrics"]["trace.coverage_frac"]["value"] >= 0.9
    else:
        assert all(v["value"] > 0 for v in res_a["metrics"].values())


def test_refuses_without_the_library(tmp_path):
    """A directory holding only the benchmark is not a checkout: the run
    must fail without printing a result."""
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench(str(tmp_path), WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
