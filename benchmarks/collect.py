"""Run the benchmark several times per workload and write BENCH_<label>.json.

    python3 benchmarks/collect.py --label baseline

Each workload runs untraced once per seed, seeds 1 to 10 one after
another, then traced once with seed 1; then the next workload runs.  For
every end-to-end metric, and for the recorded 90th percentile where a
workload has one, the file records each run's value, the median, the
quartiles as ``statistics.quantiles(values, n=4)`` gives them, and the
spread (q3 - q1) / median next to the metric's bound from BENCHMARK.json.  Per-layer metrics come from the traced run.  Every
run lasts BENCHMARK.json's ``run_seconds``.  A perf claim compares two such
files made with the same benchmark code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["record"] = json.loads(lines[-2])["record"]
    return result


def summarize(values: list[float], bound: float | None) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median
    out = {"values": values, "median": median, "q1": q1, "q3": q3, "spread": spread}
    if bound is not None:
        out.update(bound=bound, spread_below_third_of_bound=spread < bound / 3)
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    out_path = BENCH_DIR / "results" / f"BENCH_{args.label}.json"
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]

    runs: dict[str, list[dict]] = {w: [] for w in names}
    traced: dict[str, dict] = {}
    for w in names:
        for seed in SEEDS:
            result = run_once(w, seed, seconds, 0)
            runs[w].append(result)
            shown = ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{w} seed {seed}: failed {result['failed']}/{result['attempted']}; {shown}",
                  file=sys.stderr)
        traced[w] = run_once(w, SEEDS[0], seconds, 1)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"label": args.label, "run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for w in names:
        results = runs[w]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        summary = {
            name: summarize([r["metrics"][name]["value"] for r in results], bound)
            for name, bound in bounds.items()
        }
        tail = [r["record"]["op_p90_s"] for r in results]
        if None not in tail:  # recorded, not gated: see README.md
            summary["op_p90_s"] = summarize(tail, None)
        report["workloads"][w] = {
            "context": results[0]["record"]["context"],
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "ops_per_run": [r["record"]["ops"] for r in results],
            "samples_per_run": [r["record"]["samples"] for r in results],
            "end_to_end": summary,
            "per_layer": traced[w]["metrics"],
        }
        for name, s in summary.items():
            print(f"{w:9s} {name:13s} median {s['median']:.5g}  spread {s['spread']:.3f}"
                  f"  bound {s.get('bound')}", file=sys.stderr)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
