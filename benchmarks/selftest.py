"""Self-test of the benchmark harness itself, not of kummercert.

    python3 -m pytest benchmarks/selftest.py -q

A tiny run of every workload must print exactly the metrics BENCHMARK.json
names, with their units; a wrong expected value injected into the harness's
own checker must surface as failed operations and an error rate above 0;
and without the package sources the benchmark must fail without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
import harness  # noqa: E402
import workloads  # noqa: E402
from kummercert.jordan import JordanType, direct_sum  # noqa: E402
from kummercert.linalg import FinAbGroup  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, check=False, cwd=cwd,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric(workload, trace, section):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert record["error_rate"] == 0.0
    assert record["context"]["workload"] == workload and record["context"]["seed"] == 3
    assert (record["op_p90_s"] is None) == (record["ops"] < harness.P90_MIN_OPS)


def _off_by_one_block(case) -> JordanType:
    return direct_sum(ORIGINAL_ORACLE_EXPECTED(case), JordanType(1, 0, 0))


def _one_more_z3(counts, degree) -> FinAbGroup:
    return ORIGINAL_CROSSVAL_EXPECTED(counts, degree).direct_sum(FinAbGroup(0, (3,)))


ORIGINAL_ORACLE_EXPECTED = workloads.Oracle.expected
ORIGINAL_CROSSVAL_EXPECTED = workloads.Crossval.expected_group
WRONG_EXPECTATIONS = {
    "certify": lambda mp: mp.setitem(workloads.REFERENCE_ELL, "2", {"l1": 10, "l2": 0, "l3": 5}),
    "oracle": lambda mp: mp.setattr(workloads.Oracle, "expected", staticmethod(_off_by_one_block)),
    "crossval": lambda mp: mp.setattr(
        workloads.Crossval, "expected_group", staticmethod(_one_more_z3)
    ),
    "ledger": lambda mp: mp.setattr(workloads.Ledger, "expected_pass", staticmethod(lambda n: False)),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_value_shows_as_errors(workload, monkeypatch, capsys):
    WRONG_EXPECTATIONS[workload](monkeypatch)
    assert harness.run(workload, 5, 1.5, trace=False) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    assert result["correct"] is False and result["failed"] > 0
    assert record["error_rate"] > 0 and record["first_failure"]


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = _run("ledger", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
