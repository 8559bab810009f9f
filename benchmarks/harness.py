"""Closed-loop measurement of one workload, untraced or traced.

One client, one operation at a time: the next operation starts when the
previous one has finished, for ``seconds`` of wall time, after a second of
untimed warm-up operations.  A failed operation, warm-up included, is
counted; a timed one keeps its time in the sample.

The untraced run reports the end-to-end metrics; set-up is timed in fresh
interpreters, several times, so it includes import cost and its median is
stable.  The traced run installs ``tracing.Tracer`` and reports per-layer
metrics; its tracing overhead is measured against an untraced child process
running the same operations, which never installs a wrapper.  The two loops
of a traced run get half of ``seconds`` each, so both kinds of run take
about the same time.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import numpy

import workloads

SETUP_SAMPLES = 5
WARMUP_S = 1.0
# ops_per_s is the median of per-window rates: a stretch of seconds in which
# the machine runs slow moves it less than it moves the whole-run mean.
WINDOW_S = 1.0
REFERENCE_GRACE_S = 60
# The 90th percentile goes into the record only from this many operations
# on, so that at least ten samples lie beyond it.
P90_MIN_OPS = 100


def timed_loop(workload, seconds: float, after_op=None, after_warmup=None) -> dict:
    durations: list[float] = []
    ends: list[float] = []
    failed = 0
    first_failure = None

    def one_op(i: int) -> None:
        nonlocal failed, first_failure
        try:
            workload.op(i)
        except Exception as exc:  # a failing operation is counted, never dropped
            failed += 1
            first_failure = first_failure or f"op {i}: {type(exc).__name__}: {exc}"

    # Warm-up: operations that are checked and counted but not timed.
    warmup = 0
    warmup_start = perf_counter()
    while warmup == 0 or perf_counter() - warmup_start < WARMUP_S:
        one_op(warmup)
        warmup += 1
    if after_warmup is not None:
        after_warmup()
    start = perf_counter()
    while perf_counter() - start < seconds:
        t0 = perf_counter()
        one_op(warmup + len(durations))
        durations.append(perf_counter() - t0)
        if after_op is not None:
            after_op()
        ends.append(perf_counter() - start)
    return {
        "durations": durations,
        "ends": ends,
        "warmup": warmup,
        "failed": failed,
        "elapsed_s": perf_counter() - start,
        "first_failure": first_failure,
    }


def window_rates(ends: list[float]) -> list[float]:
    """Operations per second in consecutive windows of at least ``WINDOW_S``.

    A window closes at the first operation end ``WINDOW_S`` or more after the
    previous window closed; a last window shorter than that is left out.
    """
    rates = []
    count = 0
    closed = 0.0
    for end in ends:
        count += 1
        if end - closed >= WINDOW_S:
            rates.append(count / (end - closed))
            count = 0
            closed = end
    return rates


def p90(values: list[float]) -> float | None:
    if len(values) < P90_MIN_OPS:
        return None
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _setup_command(name: str, seed: int) -> list[str]:
    if name == "certify":
        return [sys.executable, "-c", "import kummercert.cli"]
    code = "import sys, workloads; workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))"
    return [sys.executable, "-c", code, name, str(seed)]


def measure_setup(name: str, seed: int) -> list[float]:
    """Wall times of fresh interpreters that import kummercert and prepare inputs.

    One untimed run first writes the bytecode caches, which a user pays once.
    """
    command = _setup_command(name, seed)
    times = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = perf_counter()
        code, _, stderr = workloads.run_child(command)
        elapsed = perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"set-up child exited with {code}: {stderr[-300:]!r}")
        if i:
            times.append(elapsed)
    return times


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(workloads.BENCH_DIR.parent.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(workloads.BENCH_DIR.parent), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30, check=False,
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    package = workloads.SRC_DIR / "kummercert"
    digest = hashlib.sha256()
    for path in sorted(p for p in package.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(package)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def context(name: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "clients": 1,
    }


def _peak_rss_mib(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "certify" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def _summary(loop: dict, samples: dict, extra_attempted: int = 0, extra_failed: int = 0) -> dict:
    return {
        "ops": len(loop["durations"]),
        "attempted": len(loop["durations"]) + loop["warmup"] + extra_attempted,
        "failed": loop["failed"] + extra_failed,
        "samples": samples,
        "op_p90_s": p90(loop["durations"]),
        "first_failure": loop["first_failure"],
    }


def run_untraced(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setup = measure_setup(name, seed)
    loop = timed_loop(workloads.WORKLOADS[name](seed), seconds)
    d = loop["durations"]
    rates = window_rates(loop["ends"]) or [len(d) / loop["elapsed_s"]]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (statistics.median(d), "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mib": (_peak_rss_mib(name), "MiB"),
    }
    samples = {"setup_s": len(setup), "op_p50_s": len(d), "op_p90_s": len(d), "ops_per_s": len(rates)}
    return metrics, _summary(loop, samples)


def untraced_reference(name: str, seed: int, seconds: float) -> dict:
    """The traced run's operations with no wrapper installed (run in a child)."""
    loop = timed_loop(workloads.TRACED[name](seed), seconds)
    d = loop["durations"]
    return {"op_p50_s": statistics.median(d), "ops": len(d), "failed": loop["failed"]}


def _reference_child(name: str, seed: int, seconds: float) -> dict:
    code = (
        "import json, sys, harness; "
        "print(json.dumps(harness.untraced_reference(sys.argv[1], int(sys.argv[2]), "
        "float(sys.argv[3]))))"
    )
    exit_code, stdout, stderr = workloads.run_child(
        [sys.executable, "-c", code, name, str(seed), str(seconds)],
        timeout=seconds + REFERENCE_GRACE_S,
    )
    if exit_code != 0:
        raise RuntimeError(f"untraced reference exited with {exit_code}: {stderr[-300:]!r}")
    return json.loads(stdout.splitlines()[-1])


def run_traced(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    import tracing

    seconds /= 2
    reference = _reference_child(name, seed, seconds)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload = workloads.TRACED[name](seed)
        loop = timed_loop(workload, seconds, after_op=tracer.end_op, after_warmup=tracer.reset)
    finally:
        tracer.uninstall()
    values = tracer.metrics()
    traced_p50 = statistics.median(loop["durations"])
    values["trace.untraced_op_p50_s"] = reference["op_p50_s"]
    values["trace.traced_op_p50_s"] = traced_p50
    values["trace.overhead_op_p50_s"] = traced_p50 - reference["op_p50_s"]
    metrics = {k: (values[k], unit) for k, unit in tracing.metric_units().items()}
    samples = {"traced_ops": len(loop["durations"]), "untraced_ops": reference["ops"]}
    return metrics, _summary(loop, samples, reference["ops"], reference["failed"])


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload and print the record line, then the result line."""
    if trace:
        metrics, summary = run_traced(name, seed, seconds)
    else:
        metrics, summary = run_untraced(name, seed, seconds)
    record = {
        "context": context(name, seed, seconds, trace),
        "ops": summary["ops"],
        "samples": summary["samples"],
        "op_p90_s": summary["op_p90_s"],
        "error_rate": summary["failed"] / summary["attempted"],
        "first_failure": summary["first_failure"],
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0
