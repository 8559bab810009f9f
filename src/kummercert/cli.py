"""Command-line entry point: compute, certify, report.

Exit codes: 0 all checks passed, 1 a verification failed, 2 bad input or
configuration, 3 an internal invariant was violated.  Reports go to
stdout (text or JSON via --format), diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .cohomology import cohomology_closed_form, cohomology_snf, cross_validate, jordan_type_mod3
from .jordan import JordanType
from .kummer import REFERENCE_TABLE, VANISHING_PAIRS, CertificateFailure, build_model
from .ledger import ScriptFormatError, check_script, leaf_facts_from_computation, read_script
from .linalg import InvariantError, Value
from .proofscript import load_shipped_script

CONCLUSION = "Tors H^k(K2(A), Z) = 0 for all k."


class ConfigError(Exception):
    pass


class RunConfig(Value):
    """A parsed command line."""

    __slots__ = _fields = ("command", "output_format", "script_path", "seed")

    def __init__(self, command: str, output_format: str = "text", script_path: str | None = None,
                 seed: int = 0):
        self._init(command, output_format, script_path, seed)


def _validate(config: RunConfig) -> None:
    if config.command not in COMMANDS:
        raise ConfigError(f"unknown command {config.command!r}")
    if config.output_format not in ("text", "json"):
        raise ConfigError(f"unknown output format {config.output_format!r}")
    if config.command == "check-ledger" and not config.script_path:
        raise ConfigError("check-ledger requires --script")
    if config.command != "check-ledger" and config.script_path:
        raise ConfigError("--script is only meaningful for check-ledger")


def _jordan_row(t: JordanType) -> str:
    return f"l1={t.l1:<3d} l2={t.l2:<3d} l3={t.l3:<3d} (dim {t.dimension})"


def _cmd_ell_table(config: RunConfig):
    table = build_model().ell
    payload = {
        "ell_table": {
            str(k): {**t.to_json_dict(), "dimension": t.dimension, "provenance": "computed"}
            for k, t in sorted(table.items())
        }
    }
    lines = ["block counts of the degree-k lattice mod 3 (both routes agree):"]
    lines += [f"  k={k}  {_jordan_row(t)}" for k, t in sorted(table.items())]
    return True, payload, "\n".join(lines)


def _cmd_cohomology(config: RunConfig):
    model = build_model()
    rows = []
    ok = True
    lines = ["group cohomology H^p(A3, H^q) of the exterior-power lattices:"]
    for q in range(5):
        coeff = model.powers[q]
        jtype = jordan_type_mod3(coeff)
        for p in (1, 2):
            group = cohomology_snf(coeff, p)
            closed = cohomology_closed_form(jtype, p)
            agree = group == closed
            ok = ok and agree
            rows.append(
                {
                    "p": p,
                    "q": q,
                    "group": group.to_json_dict(),
                    "closed_form": closed.to_json_dict(),
                    "agree": agree,
                    "provenance": "computed",
                }
            )
            lines.append(
                f"  H^{p}(A3, H^{q}) = {group}  [closed form {closed}: "
                f"{'ok' if agree else 'MISMATCH'}]"
            )
    return ok, {"cohomology": rows}, "\n".join(lines)


def _cmd_verify_proposition(config: RunConfig):
    matrix_route, closed_route = build_model().routes
    rows = []
    ok = True
    lines = ["block-count table, both computation routes against the reference:"]
    for k in sorted(REFERENCE_TABLE):
        ref = REFERENCE_TABLE[k]
        good = matrix_route[k] == ref and closed_route[k] == ref
        ok = ok and good
        rows.append(
            {
                "k": k,
                "reference": {**ref.to_json_dict(), "provenance": "reference"},
                "matrix_route": {**matrix_route[k].to_json_dict(), "provenance": "computed"},
                "closed_route": {**closed_route[k].to_json_dict(), "provenance": "computed"},
                "ok": good,
            }
        )
        lines.append(
            f"  k={k}  reference {_jordan_row(ref)}  "
            f"matrix={'ok' if matrix_route[k] == ref else 'MISMATCH'}  "
            f"closed-form={'ok' if closed_route[k] == ref else 'MISMATCH'}"
        )
    lines.append("verdict: " + ("all values reproduced" if ok else "MISMATCH"))
    return ok, {"proposition": rows}, "\n".join(lines)


def _cmd_check_ledger(config: RunConfig):
    with open(config.script_path, "rb") as handle:  # read_script decodes it as UTF-8
        report = check_script(read_script(handle.read()))
    return report.passed, {"ledger": report.to_json_dict()}, report.to_text()


def _cmd_full_cert(config: RunConfig):
    sections = []
    lines = []

    def section(name: str, passed: bool, detail: str) -> None:
        sections.append({"name": name, "pass": passed, "detail": detail})
        lines.append(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")

    model = build_model()
    section(
        "lattice model",
        model.is_expected_model,
        f"order 3 on Z^8, mod-3 type {model.base_type}, fixed rank "
        f"{model.fixed_ranks[1]} [computed]",
    )

    matrix_route, closed_route = model.routes
    table_ok = all(
        matrix_route[k] == REFERENCE_TABLE[k] and closed_route[k] == REFERENCE_TABLE[k]
        for k in REFERENCE_TABLE
    )
    section(
        "invariant table",
        table_ok,
        "k=1..4 block counts match the reference by both routes [computed vs reference]",
    )

    try:
        vanishing = model.vanishing
        section(
            "vanishing certificate",
            True,
            f"{len(vanishing)}/{len(VANISHING_PAIRS)} groups H^p(A3, H^q) are zero [computed]",
        )
        vanishing_ok = True
    except CertificateFailure as exc:
        section("vanishing certificate", False, str(exc))
        vanishing_ok = False

    report_payload = None
    certified = vanishing_ok and model.is_expected_model and table_ok
    if certified:
        shipped = load_shipped_script()
        recomputed = leaf_facts_from_computation(model)
        section(
            "computation-backed axioms",
            tuple(a for a in shipped.axioms if a.computation) == recomputed,
            f"{len(recomputed)} recomputed facts match the shipped script "
            f"[computed, tag {model.content_tag()}]",
        )
        report = check_script(shipped)
        report_payload = report.to_json_dict()
        goals = f"{sum(1 for g in report.goals if g.established)}/{len(report.goals)}"
        section(
            "ledger replay",
            report.passed,
            f"{goals} goals established from {len(shipped.axioms)} axioms "
            f"and {len(shipped.steps)} steps [axiom/computed provenance in report]",
        )
    else:
        section("computation-backed axioms", False, "skipped: upstream failure")
        section("ledger replay", False, "skipped: upstream failure")

    samples = 20
    cross_ok = cross_validate(random.Random(config.seed), samples, max_rank=10)
    section(
        "cross-validation sample",
        cross_ok,
        f"{samples} random conjugated lattices, degrees 1..4, closed form vs "
        f"Smith normal form (seed {config.seed}) [computed]",
    )

    passed = all(s["pass"] for s in sections)
    lines.append(CONCLUSION if passed else "certification FAILED")
    payload = {"sections": sections, "conclusion": lines[-1]}
    if certified:
        payload["context"] = model.to_json_dict()
    if report_payload is not None:
        payload["ledger"] = report_payload
    return passed, payload, "\n".join(lines)


_HANDLERS = {
    "ell-table": _cmd_ell_table,
    "cohomology": _cmd_cohomology,
    "verify-proposition": _cmd_verify_proposition,
    "check-ledger": _cmd_check_ledger,
    "full-cert": _cmd_full_cert,
}
COMMANDS = tuple(_HANDLERS)


def run(config: RunConfig) -> tuple[int, dict, str]:
    """Execute one command; returns (exit code, JSON payload, text report)."""
    _validate(config)
    passed, payload, text = _HANDLERS[config.command](config)
    payload = {"command": config.command, "pass": passed, **payload}
    return (0 if passed else 1), payload, text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kummercert",
        description="Exact-arithmetic torsion certification for the "
        "generalized Kummer fourfold.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--script", default=None, help="proof script path (check-ledger)")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized runs")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = RunConfig(
        command=args.command,
        output_format=args.format,
        script_path=args.script,
        seed=args.seed,
    )
    try:
        code, payload, text = run(config)
    except (ConfigError, OSError, ScriptFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except CertificateFailure as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 1
    if config.output_format == "json":
        print(json.dumps(payload, indent=2, sort_keys=False))
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
