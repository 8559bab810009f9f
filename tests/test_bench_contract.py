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

# The lattice layers that crossval and certify exist to exercise.
LATTICE_LAYERS = (
    "cohomology.lattice_action",
    "linalg.exterior_power",
    "cohomology.random_conjugated_block_action",
)
# The F_3 layers the oracle exists to exercise.
ORACLE_LAYERS = ("jordan.jordan_type_unipotent", "linalg.fp_rank")


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
    if name in ("crossval", "certify"):
        # Building lattices from rows must still pass through the wrapped layers.
        assert [layer for layer in LATTICE_LAYERS if tracer.calls[layer] == 0] == []
    if name == "oracle":
        # Criterion 4's reference route: Jordan types from ranks of dense F_3 matrices.
        assert [layer for layer in ORACLE_LAYERS if tracer.calls[layer] == 0] == []
