"""The benchmark's four workloads and the exact checks on their outputs.

A workload is built from the workload seed, which fixes every input, and
``op(i)`` performs operation ``i`` of the closed loop.  ``op`` raises
``CheckFailed`` when an output differs from what the harness expects; the
expected values below belong to the harness, so a wrong program output can
never pass by agreeing with itself.  See README.md for why each workload
exists and which layers it stresses.

Calls go through module attributes (``jordan.wedge``, not a name imported
into this file) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from kummercert import cli, cohomology, jordan, kummer, ledger, linalg, proofscript

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
CHILD_TIMEOUT_S = 120


class CheckFailed(Exception):
    """An operation's output is not the expected one."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's sources come first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC_DIR), str(BENCH_DIR)])
    return env


def run_child(command: list[str], timeout: float = CHILD_TIMEOUT_S) -> tuple[int, bytes, bytes]:
    """Run a child interpreter to completion; returns (exit code, stdout, stderr).

    A child still running after ``timeout`` seconds is killed and
    ``subprocess.TimeoutExpired`` is raised, which fails the operation.
    """
    proc = subprocess.run(command, env=child_env(), capture_output=True, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


# --------------------------------------------------------------------------
# certify: the full certification run a user starts from the shell

CONCLUSION = "Tors H^k(K2(A), Z) = 0 for all k."
REFERENCE_ELL = {
    "1": {"l1": 0, "l2": 4, "l3": 0},
    "2": {"l1": 10, "l2": 0, "l3": 6},
    "3": {"l1": 0, "l2": 16, "l3": 8},
    "4": {"l1": 19, "l2": 0, "l3": 17},
}
GOALS = 9
VANISHING_ENTRIES = 8
ZERO_GROUP = {"rank": 0, "torsion": []}
CERTIFY_SEEDS = 3


def check_full_cert_report(stdout: bytes) -> None:
    payload = json.loads(stdout)
    expect(payload.get("pass") is True, "report does not pass")
    expect(payload.get("conclusion") == CONCLUSION, f"conclusion {payload.get('conclusion')!r}")
    goals = payload["ledger"]["goals"]
    established = sum(1 for g in goals if g["established"])
    expect(len(goals) == GOALS and established == GOALS, f"{established}/{len(goals)} goals")
    context = payload["context"]
    expect(context["ell_table"] == REFERENCE_ELL, f"ell table {context['ell_table']}")
    vanishing = context["vanishing"]
    expect(
        len(vanishing) == VANISHING_ENTRIES and all(e["group"] == ZERO_GROUP for e in vanishing),
        f"vanishing certificate {vanishing}",
    )


class Certify:
    """``kummercert full-cert --format json --seed s`` in a fresh interpreter.

    The seeds cycle through a few drawn from the workload seed, so every
    later run of a seed is compared byte for byte with its first run.
    """

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.seeds = [rng.randrange(2**31) for _ in range(CERTIFY_SEEDS)]
        self.first_stdout: dict[int, bytes] = {}

    def full_cert(self, seed: int) -> bytes:
        code, stdout, stderr = run_child(
            [sys.executable, "-m", "kummercert.cli", "full-cert", "--format", "json",
             "--seed", str(seed)]
        )
        expect(code == 0, f"exit code {code}: {stderr[-300:]!r}")
        return stdout

    def op(self, i: int) -> None:
        seed = self.seeds[i % len(self.seeds)]
        stdout = self.full_cert(seed)
        check_full_cert_report(stdout)
        first = self.first_stdout.setdefault(seed, stdout)
        expect(stdout == first, f"seed {seed}: stdout differs from its first run")


class CertifyInProcess(Certify):
    """The same operation through ``cli.run``, for the traced run."""

    def full_cert(self, seed: int) -> bytes:
        code, payload, _ = cli.run(cli.RunConfig("full-cert", output_format="json", seed=seed))
        expect(code == 0, f"exit code {code}")
        return (json.dumps(payload, indent=2, sort_keys=False) + "\n").encode()


# --------------------------------------------------------------------------
# oracle: the closed-form Jordan calculus against the F_3 matrix route

ORACLE_MAX_DIM = 9


class Oracle:
    """Every tensor and wedge case of acceptance criterion 4, in seeded order."""

    def __init__(self, seed: int):
        types = jordan.types_up_to_dim(ORACLE_MAX_DIM)
        self.realized = {t: jordan.realize(t) for t in types}
        self.lifted = {t: m.lift() for t, m in self.realized.items()}
        self.cases = [("tensor", a, b) for a in types for b in types]
        self.cases += [("wedge", a, k) for a in types for k in range(a.dimension + 1)]
        random.Random(seed).shuffle(self.cases)

    @staticmethod
    def expected(case) -> jordan.JordanType:
        kind, a, x = case
        return jordan.tensor(a, x) if kind == "tensor" else jordan.wedge(a, x)

    def op(self, i: int) -> None:
        case = self.cases[i % len(self.cases)]
        kind, a, x = case
        if kind == "tensor":
            product = linalg.kronecker(self.realized[a], self.realized[x])
        else:
            product = linalg.exterior_power(self.lifted[a], x).reduce_mod(3)
        observed = jordan.jordan_type_unipotent(product)
        expected = self.expected(case)
        expect(observed == expected, f"{kind}({a}, {x}): matrix {observed} != {expected}")


# --------------------------------------------------------------------------
# crossval: closed form against Smith normal form on scrambled lattices

CROSSVAL_MAX_RANK = 12


class Crossval:
    """One random conjugated block lattice per operation (criterion 5's law)."""

    def __init__(self, seed: int):
        self.seeds = random.Random(seed)

    @staticmethod
    def expected_group(counts: jordan.JordanType, degree: int) -> linalg.FinAbGroup:
        return linalg.FinAbGroup(0, (3,) * (counts.l1 if degree % 2 == 0 else counts.l2))

    def op(self, i: int) -> None:
        rng = random.Random(self.seeds.getrandbits(64))
        action, counts = cohomology.random_conjugated_block_action(rng, max_rank=CROSSVAL_MAX_RANK)
        observed = cohomology.jordan_type_mod3(action)
        expect(observed == counts, f"mod-3 type {observed} != built {counts}")
        for degree in range(1, 5):
            group = cohomology.cohomology_snf(action, degree)
            expected = self.expected_group(counts, degree)
            expect(group == expected, f"{counts} H^{degree}: {group} != {expected}")
        if counts.dimension >= 2:
            square = cohomology.jordan_type_mod3(kummer.coefficient_action(action, 2))
            expected = jordan.wedge(counts, 2)
            expect(square == expected, f"{counts} wedge 2: {square} != {expected}")


# --------------------------------------------------------------------------
# ledger: the check-ledger path on the shipped script and its mutants


class Ledger:
    """Replays of ``kummer.proof`` and its single-deletion mutants.

    The shipped script must establish every goal and each mutant must fail;
    every later report of a script is compared with its first, byte for byte.
    """

    def __init__(self, seed: int):
        shipped = proofscript.load_shipped_script()
        self.scripts = [("shipped", proofscript.shipped_script_text())]
        for axiom in shipped.axioms:
            mutant = ledger.without_axiom(shipped, axiom.id)
            self.scripts.append((f"without axiom {axiom.id}", self._text(mutant)))
        for step in shipped.steps:
            mutant = ledger.without_step(shipped, step.id)
            self.scripts.append((f"without step {step.id}", self._text(mutant)))
        random.Random(seed).shuffle(self.scripts)
        self.first_report: dict[str, str] = {}

    @staticmethod
    def _text(script) -> str:
        return json.dumps(ledger.script_to_json_dict(script), indent=2)

    @staticmethod
    def expected_pass(name: str) -> bool:
        return name == "shipped"

    def op(self, i: int) -> None:
        name, text = self.scripts[i % len(self.scripts)]
        report = ledger.check_script(ledger.parse_script(json.loads(text)))
        out = json.dumps(report.to_json_dict())
        expect(report.passed == self.expected_pass(name), f"{name}: pass = {report.passed}")
        if report.passed:
            established = sum(1 for g in report.goals if g.established)
            expect(established == GOALS, f"{name}: {established}/{GOALS} goals")
        first = self.first_report.setdefault(name, out)
        expect(out == first, f"{name}: report differs from its first replay")


# Workloads measured by the untraced run, and the operations the traced run
# wraps: certify's traced operation runs in-process so the wrappers see it.
WORKLOADS = {"certify": Certify, "oracle": Oracle, "crossval": Crossval, "ledger": Ledger}
TRACED = {**WORKLOADS, "certify": CertifyInProcess}
