"""Per-layer tracing of kummercert, installed from outside the package.

Every layer boundary listed in ``LAYERS`` is wrapped from the benchmark's
own code: methods are replaced on their class, and free functions are
replaced in every kummercert module namespace that binds the original, so
calls made across modules (``kummer`` calling ``exterior_power``, ``linalg``
calling ``smith_normal_form`` from ``kernel_basis``) go through the wrapper
too.  A wrapper records the call count and the self time of the layer (its
duration minus the time spent in wrapped calls it made) and may add work
counts computed from the call's arguments and result.  Counting happens
after the clock stops and is charged to no layer.

Values are reported per benchmark operation, so runs of different lengths
compare directly.  The untraced benchmark never imports this module.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

PACKAGE = "kummercert"
MODULES = ("linalg", "jordan", "cohomology", "kummer", "ledger", "proofscript", "cli")


def _max_bits(matrices) -> int:
    return max(
        (abs(x).bit_length() for m in matrices for row in m.data for x in row), default=0
    )


def _intmatmul(tracer, args, kwargs, result) -> None:
    a, b = args
    tracer.add("linalg.intmatmul.mults", a.rows * a.cols * b.cols)


def _exterior_power(tracer, args, kwargs, result) -> None:
    m = args[0]
    tracer.add("linalg.exterior_power.out_entries", result.rows * result.cols)
    if m.rows:
        nonzero = sum(1 for row in m.data for x in row if x)
        tracer.observe_mean("linalg.exterior_power.input_density", nonzero / (m.rows * m.cols))


def _smith_normal_form(tracer, args, kwargs, result) -> None:
    m = args[0]
    tracer.observe_max("linalg.smith_normal_form.max_dim", max(m.rows, m.cols))
    tracer.observe_max("linalg.smith_normal_form.max_bits", _max_bits(result))


def _fp_rank(tracer, args, kwargs, result) -> None:
    m = args[0]
    tracer.observe_max("linalg.fp_rank.max_dim", max(m.rows, m.cols))


def _coefficient_action(tracer, args, kwargs, result) -> None:
    action = args[0]
    q = args[1] if len(args) > 1 else kwargs["q"]
    tracer.observe_distinct("kummer.coefficient_action.distinct_ratio", (action.matrix.data, q))


def _cli_run(tracer, args, kwargs, result) -> None:
    _, payload, text = result
    config = args[0]
    out = json.dumps(payload, indent=2, sort_keys=False) if config.output_format == "json" else text
    tracer.add("cli.report_bytes", len(out.encode()) + 1)


def _facts_added(tracer, args, kwargs, result) -> None:
    tracer.add("ledger.facts_added", len(result))


# (layer name, module, class or None, attribute, work-count hook).  A layer
# name yields the metrics "<name>.calls" and "<name>.self_s".
LAYERS = (
    ("linalg.intmatmul", "linalg", "IntMatrix", "__matmul__", _intmatmul),
    ("linalg.mat_pow", "linalg", "IntMatrix", "mat_pow", None),
    ("linalg.exterior_power", "linalg", None, "exterior_power", _exterior_power),
    ("linalg.smith_normal_form", "linalg", None, "smith_normal_form", _smith_normal_form),
    ("linalg.kernel_basis", "linalg", None, "kernel_basis", None),
    ("linalg.solve_exact", "linalg", None, "solve_exact", None),
    ("linalg.cokernel", "linalg", None, "cokernel", None),
    ("linalg.fp_rank", "linalg", "FpMatrix", "rank", _fp_rank),
    ("linalg.kronecker", "linalg", None, "kronecker", None),
    ("jordan.jordan_type_unipotent", "jordan", None, "jordan_type_unipotent", None),
    ("jordan.tensor", "jordan", None, "tensor", None),
    ("jordan.wedge", "jordan", None, "wedge", None),
    ("cohomology.lattice_action", "cohomology", "LatticeAction", "__post_init__", None),
    ("cohomology.cohomology_snf", "cohomology", None, "cohomology_snf", None),
    (
        "cohomology.random_conjugated_block_action",
        "cohomology",
        None,
        "random_conjugated_block_action",
        None,
    ),
    ("kummer.coefficient_action", "kummer", None, "coefficient_action", _coefficient_action),
    ("kummer.build_sigma_h1", "kummer", None, "build_sigma_h1", None),
    ("kummer.ell_table_routes", "kummer", None, "ell_table_routes", None),
    ("kummer.vanishing_certificate", "kummer", None, "vanishing_certificate", None),
    ("kummer.fixed_rank_table", "kummer", None, "fixed_rank_table", None),
    ("kummer.build_context", "kummer", None, "build_context", None),
    ("ledger.parse_script", "ledger", None, "parse_script", None),
    ("ledger.check_script", "ledger", None, "check_script", None),
    ("ledger.apply_rule", "ledger", None, "apply_rule", None),
    (
        "ledger.leaf_facts_from_computation",
        "ledger",
        None,
        "leaf_facts_from_computation",
        None,
    ),
    ("proofscript.load_shipped_script", "proofscript", None, "load_shipped_script", None),
    ("proofscript.build_script", "proofscript", None, "build_script", None),
    ("cli.run", "cli", None, "run", _cli_run),
)

# Counted without a clock: FactStore.add runs thousands of times per replay.
COUNTERS = (("ledger", "FactStore", "add", _facts_added),)

# Work counts beyond calls and self time: name -> (unit, how it aggregates).
# "total" is summed and reported per operation, "max" is the largest value
# seen, "mean" averages over calls, "per_op" averages a per-operation ratio.
EXTRA = {
    "linalg.intmatmul.mults": ("count/op", "total"),
    "linalg.exterior_power.out_entries": ("count/op", "total"),
    "linalg.exterior_power.input_density": ("ratio", "mean"),
    "linalg.smith_normal_form.max_dim": ("count", "max"),
    "linalg.smith_normal_form.max_bits": ("bits", "max"),
    "linalg.fp_rank.max_dim": ("count", "max"),
    "kummer.coefficient_action.distinct_ratio": ("ratio", "per_op"),
    "ledger.facts_added": ("count/op", "total"),
    "cli.report_bytes": ("bytes/op", "total"),
}
OVERHEAD_UNITS = {
    "trace.untraced_op_p50_s": "s",
    "trace.traced_op_p50_s": "s",
    "trace.overhead_op_p50_s": "s",
}


def metric_units() -> dict[str, str]:
    units = {}
    for name, *_ in LAYERS:
        units[f"{name}.calls"] = "count/op"
        units[f"{name}.self_s"] = "s/op"
    units.update({name: unit for name, (unit, _) in EXTRA.items()})
    units.update(OVERHEAD_UNITS)
    return units


class Tracer:
    """Aggregates layer calls, self time and work counts over operations."""

    def __init__(self) -> None:
        self._child_time = [0.0]
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.ops = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.totals: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._means: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
        self._distinct_keys: dict[str, tuple[set, list[int]]] = {}
        self._ratios: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])

    # -- work counts -----------------------------------------------------

    def add(self, name: str, amount: float) -> None:
        self.totals[name] += amount

    def observe_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima[name], value)

    def observe_mean(self, name: str, value: float) -> None:
        acc = self._means[name]
        acc[0] += value
        acc[1] += 1

    def observe_distinct(self, name: str, key) -> None:
        keys, count = self._distinct_keys.setdefault(name, (set(), [0]))
        keys.add(key)
        count[0] += 1

    def end_op(self) -> None:
        """Close one benchmark operation; distinct ratios are per operation."""
        self.ops += 1
        for name, (keys, count) in self._distinct_keys.items():
            acc = self._ratios[name]
            acc[0] += len(keys) / count[0]
            acc[1] += 1
        self._distinct_keys = {}

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._child_time
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += elapsed - children
                stack[-1] += elapsed
            if hook is not None:
                start = perf_counter()
                hook(tracer, args, kwargs, result)
                # Counting is charged to no layer, the caller included.
                stack[-1] += perf_counter() - start
            return result

        return wrapper

    def _counted(self, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer; ``uninstall`` restores the originals."""
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        for name, module, cls, attr, hook in LAYERS:
            home = importlib.import_module(f"{PACKAGE}.{module}")
            if cls is not None:
                owner = getattr(home, cls)
                self._patch(owner, attr, self._timed(name, getattr(owner, attr), hook))
                continue
            original = getattr(home, attr)
            wrapper = self._timed(name, original, hook)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapper)
        for module, cls, attr, hook in COUNTERS:
            owner = getattr(importlib.import_module(f"{PACKAGE}.{module}"), cls)
            self._patch(owner, attr, self._counted(getattr(owner, attr), hook))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- report ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-operation layer metrics (overhead figures are added by the caller)."""
        ops = max(self.ops, 1)
        out: dict[str, float] = {}
        for name, *_ in LAYERS:
            out[f"{name}.calls"] = self.calls[name] / ops
            out[f"{name}.self_s"] = self.self_s[name] / ops
        for name, (_, kind) in EXTRA.items():
            if kind == "total":
                out[name] = self.totals[name] / ops
            elif kind == "max":
                out[name] = self.maxima[name]
            else:
                total, n = (self._means if kind == "mean" else self._ratios)[name]
                out[name] = total / n if n else 0.0
        return out
