"""The package still offers every name the benchmark in ``benchmarks/`` looks up.

The traced benchmark run wraps the layers listed in ``tracing.LAYERS`` and
runs the operations of ``workloads.TRACED``; a package change that removes
or renames one of those names breaks the benchmark, so it fails here first.
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.TRACED))
def test_traced_workload_runs_its_first_operation(name):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads.TRACED[name](0).op(0)
    finally:
        tracer.uninstall()
    assert sum(tracer.calls.values()) > 0
    if name in ("ledger", "certify"):
        # The facts a replay adds are counted at FactStore.add, so they must pass through it.
        assert tracer.totals["ledger.facts_added"] > 0
