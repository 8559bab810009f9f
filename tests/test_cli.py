import contextlib
import importlib.resources
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kummercert
from kummercert import jordan, kummer, ledger, linalg
from kummercert.cli import ConfigError, RunConfig, main, run
from kummercert.ledger import (
    SCRIPT_FORMAT,
    ScriptFormatError,
    parse_script,
    read_script,
    script_to_json_dict,
    without_axiom,
    without_step,
)
from kummercert.linalg import IntMatrix, InvariantError
from kummercert.proofscript import shipped_script_text

GOLDEN = Path(__file__).parent / "fixtures" / "golden"

SCHEMA = json.loads(
    importlib.resources.files("kummercert")
    .joinpath("data/report.schema.json")
    .read_text()
)


def validate(payload):
    jsonschema.validate(payload, SCHEMA)


def test_ell_table_command():
    code, payload, text = run(RunConfig("ell-table"))
    assert code == 0 and payload["pass"]
    validate(payload)
    assert payload["ell_table"]["4"]["l1"] == 19
    assert "k=4" in text


def test_cohomology_command():
    code, payload, _ = run(RunConfig("cohomology"))
    assert code == 0
    validate(payload)
    rows = {(r["p"], r["q"]): r for r in payload["cohomology"]}
    assert rows[(2, 0)]["group"] == {"rank": 0, "torsion": [3]}
    assert rows[(1, 1)]["group"] == {"rank": 0, "torsion": [3, 3, 3, 3]}
    assert all(r["agree"] for r in payload["cohomology"])


def test_verify_proposition_command():
    code, payload, text = run(RunConfig("verify-proposition"))
    assert code == 0
    validate(payload)
    assert all(row["ok"] for row in payload["proposition"])
    assert "all values reproduced" in text


def test_check_ledger_command(tmp_path):
    path = tmp_path / "kummer.proof"
    path.write_text(shipped_script_text())
    code, payload, text = run(RunConfig("check-ledger", script_path=str(path)))
    assert code == 0
    validate(payload)
    assert payload["ledger"]["pass"]
    assert "result: PASS" in text


def test_check_ledger_reports_mutations(tmp_path, shipped):
    mutated = without_step(shipped, "s15")
    path = tmp_path / "mutated.proof"
    path.write_text(json.dumps(script_to_json_dict(mutated)))
    code, payload, text = run(RunConfig("check-ledger", script_path=str(path)))
    assert code == 1
    validate(payload)
    assert not payload["ledger"]["pass"]
    assert payload["ledger"]["first_failure"]
    assert "first failure" in text


def test_full_cert_command():
    code, payload, text = run(RunConfig("full-cert", seed=7))
    assert code == 0
    validate(payload)
    assert payload["conclusion"] == "Tors H^k(K2(A), Z) = 0 for all k."
    assert text.endswith("Tors H^k(K2(A), Z) = 0 for all k.")
    assert all(section["pass"] for section in payload["sections"])
    assert payload["context"]["ell_table"]["2"] == {"l1": 10, "l2": 0, "l3": 6}
    assert len(payload["context"]["vanishing"]) == 8


def test_full_cert_detects_a_stale_shipped_script(shipped, monkeypatch):
    # A script whose computation-backed axioms no longer match the model
    # must fail the cross-check (and consequently the replay).
    stale = without_axiom(shipped, "cv_p1_q4")
    monkeypatch.setattr("kummercert.cli.load_shipped_script", lambda: stale)
    code, payload, _ = run(RunConfig("full-cert"))
    assert code == 1
    sections = {s["name"]: s["pass"] for s in payload["sections"]}
    assert not sections["computation-backed axioms"]
    assert not sections["ledger replay"]
    assert payload["conclusion"] == "certification FAILED"


def test_full_cert_detects_stale_model_tags(shipped, monkeypatch, capsys):
    # The same facts cited with another model's tag must fail the cross-check;
    # the replay itself reads only the facts and still passes.
    stale = shipped.replace(
        axioms=tuple(
            a.replace(cite=a.cite[:-16] + "0" * 16) if a.computation else a
            for a in shipped.axioms
        ),
    )
    assert [a.cite for a in stale.axioms] != [a.cite for a in shipped.axioms]
    monkeypatch.setattr("kummercert.cli.load_shipped_script", lambda: stale)
    assert main(["full-cert", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    sections = {s["name"]: s["pass"] for s in payload["sections"]}
    assert sections.pop("computation-backed axioms") is False
    assert all(sections.values())
    assert payload["conclusion"] == "certification FAILED"


def test_config_validation():
    with pytest.raises(ConfigError):
        run(RunConfig("check-ledger"))
    with pytest.raises(ConfigError):
        run(RunConfig("ell-table", script_path="x.proof"))
    with pytest.raises(ConfigError):
        run(RunConfig("nonsense"))


def test_main_exit_codes(tmp_path, capsys):
    assert main(["check-ledger"]) == 2
    capsys.readouterr()
    missing = tmp_path / "missing.proof"
    assert main(["check-ledger", "--script", str(missing)]) == 2
    capsys.readouterr()
    garbled = tmp_path / "garbled.proof"
    garbled.write_text("{not json")
    assert main(["check-ledger", "--script", str(garbled)]) == 2
    capsys.readouterr()


def test_main_json_output(capsys):
    assert main(["ell-table", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    validate(payload)
    assert payload["command"] == "ell-table"


def test_main_maps_invariant_errors_to_exit_3(monkeypatch, capsys):
    def broken(self):
        raise InvariantError("broken on purpose")

    monkeypatch.setattr(kummer.KummerModel, "ell", property(broken))
    assert main(["ell-table"]) == 3
    assert "internal invariant violation" in capsys.readouterr().err


def test_full_cert_reports_a_certificate_failure(monkeypatch):
    # H^2(A3, H^0) = Z/3 is non-zero, so demanding it vanish must fail
    # the certificate section, skip the ledger and exit 1.
    monkeypatch.setattr(kummer, "VANISHING_PAIRS", kummer.VANISHING_PAIRS + ((2, 0),))
    code, payload, _ = run(RunConfig("full-cert"))
    assert code == 1
    sections = {s["name"]: s for s in payload["sections"]}
    assert not sections["vanishing certificate"]["pass"]
    assert "H^2(A3, H^0) = Z/3" in sections["vanishing certificate"]["detail"]
    assert sections["computation-backed axioms"]["detail"] == "skipped: upstream failure"
    assert "context" not in payload and "ledger" not in payload


GOLDEN_RUNS = {
    "full-cert-seed0.json": ["full-cert", "--seed", "0"],
    "full-cert-seed7.json": ["full-cert", "--seed", "7"],
    "ell-table.json": ["ell-table"],
    "cohomology.json": ["cohomology"],
    "verify-proposition.json": ["verify-proposition"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_json_reports_match_golden_bytes(name, capsys):
    assert main(GOLDEN_RUNS[name] + ["--format", "json"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


def full_cert_calls(monkeypatch, *targets):
    """Run full-cert with each (owner, name) wrapped; the arguments of every call, by name.

    A method is wrapped on its class; a function in every kummercert module
    that binds it, so calls made across modules are seen too.
    """
    calls = {name: [] for _, name in targets}
    for owner, name in targets:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original):
            calls[_name].append(args)
            return _original(*args)

        owners = [owner] if isinstance(owner, type) else [
            m for n, m in sys.modules.items()
            if n.startswith("kummercert") and getattr(m, name, None) is original
        ]
        for o in owners:
            monkeypatch.setattr(o, name, counted)
    code, _, _ = run(RunConfig("full-cert"))
    assert code == 0
    return calls


def test_full_cert_builds_each_lattice_once(monkeypatch):
    calls = full_cert_calls(monkeypatch, (kummer, "coefficient_action"), (IntMatrix, "mat_pow"))
    degrees = [q for _, q in calls["coefficient_action"]]
    assert len(degrees) <= 6 and len(set(degrees)) == len(degrees)
    assert calls["mat_pow"] == []


def run_python(*args):
    """A fresh interpreter on this checkout's sources, run to completion."""
    env = dict(os.environ)
    src = str(Path(kummercert.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)


def test_full_cert_under_python_O_needs_no_asserts():
    proc = run_python("-O", "-m", "kummercert.cli", "full-cert", "--format", "json")
    assert proc.returncode == 0, proc.stderr.decode()[-500:]
    # The golden report is the stdout of the same run without -O.
    assert proc.stdout == (GOLDEN / "full-cert-seed0.json").read_bytes()


# Exit 9 if numpy, dataclasses or inspect was imported (numpy is not a
# dependency; the other two add several milliseconds to every cold start),
# else the exit code of the code before it.
HEAVY_IMPORTS_CHECK = """
import sys
heavy = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "dataclasses", "inspect"))
if heavy:
    sys.stderr.write(f"imported {heavy}")
    sys.exit(9)
"""
FULL_CERT_AS_MAIN = """
import runpy, sys
sys.argv = ["kummercert", "full-cert", "--format", "json"]
try:
    runpy.run_module("kummercert.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    if exc.code:
        raise
"""


def test_numpy_stays_out_of_the_certify_path():
    proc = run_python("-c", "import kummercert.cli" + HEAVY_IMPORTS_CHECK)
    assert proc.returncode == 0, proc.stderr.decode()[-500:]
    proc = run_python("-c", FULL_CERT_AS_MAIN + HEAVY_IMPORTS_CHECK)
    assert proc.returncode == 0, proc.stderr.decode()[-500:]
    assert proc.stdout == (GOLDEN / "full-cert-seed0.json").read_bytes()


def test_importing_the_package_imports_no_submodule():
    check = "import sys, kummercert; sys.exit(any(m.startswith('kummercert.') for m in sys.modules))"
    proc = run_python("-c", check)
    assert proc.returncode == 0, proc.stderr.decode()[-500:]


def test_the_checker_imports_only_linalg():
    # The model is only an annotation of the ledger's, so checking a script loads no lattice code.
    check = (
        "import sys, kummercert.ledger; "
        "print(sorted(m for m in sys.modules if m.startswith('kummercert.')))"
    )
    proc = run_python("-c", check)
    assert proc.returncode == 0, proc.stderr.decode()[-500:]
    assert proc.stdout.decode().strip() == "['kummercert.ledger', 'kummercert.linalg']"


def test_full_cert_runs_smith_normal_form_on_blocks_only(monkeypatch):
    # Lambda^3 and Lambda^4 of the rank-8 model have rank 56 and 70, but
    # their direct summands have rank at most 16.  Every Smith normal form,
    # with transforms or without, is one run of the elimination.
    calls = full_cert_calls(monkeypatch, (linalg, "_diagonalize"))
    sides = [max(nrows, ncols) for _, nrows, ncols in calls["_diagonalize"]]
    assert sides and max(sides) <= 16


def test_full_cert_runs_no_kernel_basis_or_exact_solve(monkeypatch):
    # The groups come from two cokernels per block, so neither the saturated
    # kernel basis nor the exact solve is on the certified path.
    calls = full_cert_calls(
        monkeypatch, (linalg, "kernel_basis"), (linalg, "solve_exact"), (linalg, "_diagonalize")
    )
    assert calls["kernel_basis"] == [] and calls["solve_exact"] == []
    assert 0 < len(calls["_diagonalize"]) <= 300


def test_full_cert_forms_no_f3_product(monkeypatch):
    # Mod-3 types come from the ranks of s - 1 and N, which the lattice
    # action already holds; no power of s - 1 is formed over F_3, and the
    # ranks are read off the integer rows without a reduced F_3 copy.
    calls = full_cert_calls(
        monkeypatch,
        (linalg.FpMatrix, "__matmul__"),
        (jordan, "jordan_type_unipotent"),
        (IntMatrix, "reduce_mod"),
        (linalg.FpMatrix, "rank"),
    )
    assert calls == {"__matmul__": [], "jordan_type_unipotent": [], "reduce_mod": [], "rank": []}


def shipped_json():
    return json.loads(shipped_script_text())


def first_step(script, rule):
    return next(s for s in script["steps"] if s["rule"] == rule)


MALFORMED_SCRIPTS = {
    "space without name": lambda d: d["spaces"][0].pop("name"),
    "axiom without facts": lambda d: d["axioms"][0].pop("facts"),
    "step without rule": lambda d: d["steps"][0].pop("rule"),
    "fact without claim": lambda d: d["goals"][0].pop("claim"),
    "degree not a number": lambda d: d["goals"][0]["subject"].update(degree="zz"),
    "degree a numeric string": lambda d: d["goals"][0]["subject"].update(degree="3"),
    "degree a float": lambda d: d["axioms"][0]["facts"][0]["subject"].update(degree=1.5),
    "degree a boolean": lambda d: d["axioms"][0]["facts"][0]["subject"].update(degree=True),
    "space name a number": lambda d: d["spaces"][0].update(name=5),
    "pair of three": lambda d: next(s for s in d["spaces"] if "pair" in s)["pair"].append("pt"),
    "rank a string": lambda d: d["axioms"][0]["facts"][0]["claim"].update(rank="1"),
    "primes not a list": lambda d: first_step(d, "combine_primes")["inputs"][0]["claim"].update(
        primes=3
    ),
    "params a list": lambda d: d["steps"][0].update(params=[]),
    "spaces an object": lambda d: d.update(spaces={"name": "X"}),
    "axiom a list": lambda d: d["axioms"].append([]),
    "computation a string": lambda d: d["axioms"][0].update(computation="false"),
    "computation a number": lambda d: d["axioms"][0].update(computation=1),
    "axiom cite a list": lambda d: d["axioms"][0].update(cite=["Totaro"]),
    "step cite a number": lambda d: d["steps"][0].update(cite=7),
    "invariant factor of 61 bits": lambda d: d["axioms"][0]["facts"].append(
        {"subject": {"space": "pt", "degree": 1},
         "claim": {"kind": "iso_to", "rank": 0, "torsion": [2**61 - 1]}}
    ),
    # What is reviewed is what is checked: no key is silently ignored.
    "unknown top-level key": lambda d: d.update(x=1),
    "unknown space key": lambda d: d["spaces"][0].update(dim=8),
    "unknown axiom key": lambda d: d["axioms"][0].update(cites="Totaro"),
    "unknown step key": lambda d: d["steps"][0].update(param={}),
    "unknown fact key": lambda d: d["goals"][0].update(note="x"),
    "unknown subject key": lambda d: d["goals"][0]["subject"].update(dim=8),
    "claim key of another kind": lambda d: d["goals"][0]["claim"].update(rank=0),
    # Every group prints under its own name: H^k of each of these would print as H^k(pt) or H^k(A).
    "plain space named like a pair": lambda d: d["spaces"].append({"name": "(pt)"}),
    "pair named like a space": lambda d: d["spaces"].append({"name": "(A)", "pair": ["U", "V"]}),
    # A relation's other group is checked like its subject: declared, in a degree >= 0.
    "negative other degree in an axiom": lambda d: d["axioms"][0]["facts"].append(
        {"subject": {"space": "pt", "degree": 1},
         "claim": {"kind": "torsion_equals", "other": {"space": "pt", "degree": -1}}}
    ),
    "negative other degree in a goal": lambda d: d["goals"].append(
        {"subject": {"space": "pt", "degree": 1},
         "claim": {"kind": "torsion_injects_into", "other": {"space": "pt", "degree": -1}}}
    ),
    "unknown claim kind": lambda d: d["goals"][0]["claim"].update(kind="is_small"),
    "claim kind a number": lambda d: d["goals"][0]["claim"].update(kind=3),
    "pair member a number": lambda d: next(s for s in d["spaces"] if "pair" in s).update(
        pair=[5, "U"]
    ),
    "goals an object": lambda d: d.update(goals={"subject": {"space": "pt", "degree": 0}}),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_SCRIPTS))
def test_malformed_scripts_exit_2(name, tmp_path, capsys):
    script = shipped_json()
    MALFORMED_SCRIPTS[name](script)
    path = tmp_path / "malformed.proof"
    path.write_text(json.dumps(script))
    assert main(["check-ledger", "--script", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


SHIPPED_TEXT = shipped_script_text()


@pytest.mark.parametrize(
    "content",
    [
        b"\xff\xfe{",
        "[".encode() * 100_000,
        b'{"format": ' + b"[" * 5000 + b"]" * 5000 + b"}",
        # One digit more than the interpreter converts to an int.
        SHIPPED_TEXT.replace('"degree": 0', '"degree": ' + "1" * 4301, 1).encode(),
        SHIPPED_TEXT.replace('"format"', '"format": "kummer-proof/1", "format"', 1).encode(),
        # Not JSON, though the decoder would read it: a float step parameter fails only its step.
        SHIPPED_TEXT.replace('"dim": 8', '"dim": NaN', 1).encode(),
    ],
    ids=["not utf-8", "deep array", "deep value", "4301 digits", "duplicate key", "NaN"],
)
def test_unreadable_documents_exit_2(content, tmp_path, capsys):
    path = tmp_path / "unreadable.proof"
    path.write_bytes(content)
    assert main(["check-ledger", "--script", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_a_duplicate_among_many_keys_is_found_quickly(tmp_path, capsys):
    # 100 000 keys in one object, the last a repeat: the keys are counted once.
    keys = [f'"k{i}": 0' for i in range(99_999)] + ['"k99998": 0']
    text = "{" + ", ".join(keys) + "}"
    started = time.perf_counter()
    with pytest.raises(ScriptFormatError, match="^duplicate key 'k99998'$"):
        read_script(text)
    assert time.perf_counter() - started < 5.0
    path = tmp_path / "many_keys.proof"
    path.write_text(text)
    assert main(["check-ledger", "--script", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "duplicate key" in captured.err


def check_ledger_json(script, tmp_path, capsys):
    """The exit code and JSON report of check-ledger on ``script``."""
    path = tmp_path / "edited.proof"
    path.write_text(json.dumps(script))
    code = main(["check-ledger", "--script", str(path), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    validate(payload)
    return code, payload


def test_a_rule_exception_fails_only_its_step(tmp_path, capsys, monkeypatch):
    # Not only ledger errors: whatever a rule raises fails its own step.
    table, combine_primes = ledger._RULES["combine_primes"]

    def broken(step, spaces, *params):
        if step.id == "s15":
            raise TypeError("broken on purpose")
        return combine_primes(step, spaces, *params)

    monkeypatch.setitem(ledger._RULES, "combine_primes", (table, broken))
    script = shipped_json()
    code, payload = check_ledger_json(script, tmp_path, capsys)
    assert code == 1
    records = payload["ledger"]["steps"]
    assert [r["id"] for r in records] == [s["id"] for s in script["steps"]]
    failed = [r for r in records if not r["ok"]]
    assert [r["id"] for r in failed] == ["s15"]
    assert failed[0]["error"] == "TypeError: broken on purpose"
    assert payload["ledger"]["first_failure"].startswith("step s15: TypeError")


# Step parameters of the wrong JSON type.  An int() coercion would accept
# most of the integer cases and read true as 1, str() would turn any value
# into a space name, and a ref with a missing or mistyped field used to
# fail with a bare KeyError or a parse-time ScriptFormatError.
BAD_STEP_PARAMETERS = {
    "primes a number": ("s15", "first", 5, "a list of integers"),
    "primes a numeric string": ("s15", "first", "3", "a list of integers"),
    "a prime a numeric string": ("s15", "first", ["3"], "a list of integers"),
    "a prime a float": ("s15", "second", [2.0], "a list of integers"),
    "a prime a boolean": ("s15", "second", [True], "a list of integers"),
    "a degree a boolean": ("s05", "degrees", [True, 3], "a list of integers"),
    "a ref empty": ("s15", "subject", {}, "a group ref"),
    "a ref without degree": ("s15", "subject", {"space": "U"}, "a group ref"),
    "a ref degree a string": ("s15", "subject", {"space": "U", "degree": "3"}, "a group ref"),
    "a ref space a number": ("s15", "subject", {"space": 5, "degree": 3}, "a group ref"),
    "a space name a number": ("s11", "total", 5, "a string"),
    "a space name a list": ("s20", "manifold", ["K2A"], "a string"),
}


@pytest.mark.parametrize("name", sorted(BAD_STEP_PARAMETERS))
def test_a_bad_step_parameter_fails_its_step(name, tmp_path, capsys):
    step_id, key, value, what = BAD_STEP_PARAMETERS[name]
    script = shipped_json()
    next(s for s in script["steps"] if s["id"] == step_id)["params"][key] = value
    code, payload = check_ledger_json(script, tmp_path, capsys)
    assert code == 1
    records = payload["ledger"]["steps"]
    assert [r["id"] for r in records] == [s["id"] for s in script["steps"]]
    failed = {r["id"]: r["error"] for r in records if not r["ok"]}
    assert failed.pop(step_id) == (
        f"ParameterMismatchError: step {step_id}: parameter {key!r} must be {what}"
    )
    # Later steps can only miss the facts the failed step would have added.
    assert all(error.startswith("MissingInputError: ") for error in failed.values())
    assert payload["ledger"]["first_failure"].startswith(f"step {step_id}: ")


def test_an_unknown_step_parameter_fails_its_step(tmp_path, capsys):
    script = shipped_json()
    first_step(script, "duality_uct")["params"]["degree"] = 4
    code, payload = check_ledger_json(script, tmp_path, capsys)
    assert code == 1
    assert payload["ledger"]["first_failure"] == (
        "step s21: ParameterMismatchError: step s21: unknown parameter 'degree'"
    )


def hk(space, degree, kind):
    return {"subject": {"space": space, "degree": degree}, "claim": {"kind": kind}}


def unrelated_spaces_script():
    """One les_torsion_equal step over plain spaces X, P and Q, none of them a pair."""
    inputs = [hk("P", 7, "is_zero"), hk("Q", 8, "torsion_free")]
    refs = {"zero": ("P", 7), "left": ("X", 7), "mid": ("Q", 8), "right": ("Q", 8)}
    return {
        "format": SCRIPT_FORMAT,
        "spaces": [{"name": "X"}, {"name": "P"}, {"name": "Q"}],
        "axioms": [{"id": "a", "facts": inputs}],
        "steps": [{
            "id": "s",
            "rule": "les_torsion_equal",
            "params": {key: {"space": x, "degree": k} for key, (x, k) in refs.items()},
            "inputs": inputs,
        }],
        "goals": [hk("X", 7, "torsion_free")],
    }


def test_an_exact_sequence_needs_a_declared_pair(tmp_path, capsys):
    # Facts about P and Q say nothing about X.
    code, payload = check_ledger_json(unrelated_spaces_script(), tmp_path, capsys)
    assert code == 1
    assert payload["ledger"]["first_failure"] == (
        "step s: ParameterMismatchError: step s: 'P' is not a declared pair"
    )
    assert payload["ledger"]["goals"][0]["established"] is False


def swapped(a, b):
    return lambda params: params.update({a: params[b], b: params[a]})


# Each edit unties a shipped step from its declared pair P = (X, Y).
PAIR_MISMATCHES = {
    "les_torsion_equal with X and Y swapped": ("s04", swapped("left", "mid")),
    "les_inject with X and Y swapped": ("s19", swapped("source", "target")),
    "thom_iso on a member of the pair": ("s03", lambda params: params.update(pair="A")),
}


@pytest.mark.parametrize("name", sorted(PAIR_MISMATCHES))
def test_a_step_untied_from_its_pair_fails(name, tmp_path, capsys):
    step_id, edit = PAIR_MISMATCHES[name]
    script = shipped_json()
    edit(next(s for s in script["steps"] if s["id"] == step_id)["params"])
    code, payload = check_ledger_json(script, tmp_path, capsys)
    assert code == 1
    [record] = [r for r in payload["ledger"]["steps"] if r["id"] == step_id]
    assert record["error"].startswith(f"ParameterMismatchError: step {step_id}: ")
    assert payload["ledger"]["first_failure"].startswith(f"step {step_id}: ")


def h1(space, kind, **claim):
    return {"subject": {"space": space, "degree": 1}, "claim": {"kind": kind, **claim}}


def chain_script(links, in_steps):
    """H^1(X0) torsion free, carried along H^1(X0) ~ ... ~ H^1(X<links>).

    The torsion equalities are one axiom's facts, or one complement_iso
    step per link.
    """
    names = [f"X{i}" for i in range(links + 1)]
    pairs = list(zip(names, names[1:]))
    relations = [h1(a, "torsion_equals", other={"space": b, "degree": 1}) for a, b in pairs]
    steps = [
        {
            "id": f"s{i}",
            "rule": "complement_iso",
            "params": {"manifold": a, "complement": b, "dim": 8, "removed_points": 1,
                       "degrees": [1]},
        }
        for i, (a, b) in enumerate(pairs)
    ]
    facts = [h1("X0", "torsion_free")]
    return {
        "format": SCRIPT_FORMAT,
        "spaces": [{"name": name} for name in names],
        "axioms": [{"id": "chain", "facts": facts if in_steps else relations + facts}],
        "steps": steps if in_steps else [],
        "goals": [h1(names[-1], "torsion_free")],
    }


@pytest.mark.parametrize("in_steps", [False, True], ids=["in one axiom", "across steps"])
def test_a_long_closure_chain_is_established(in_steps, tmp_path, capsys):
    # Neither the closure nor the goal chain has a depth limit.
    code, payload = check_ledger_json(chain_script(5000, in_steps), tmp_path, capsys)
    assert code == 0
    [goal] = payload["ledger"]["goals"]
    assert goal["established"]
    assert "H^1(X0) : torsion-free  <=  axiom chain" in goal["chain"]


def test_a_long_step_chain_replays_in_one_store(monkeypatch):
    # Every step goes through apply_rule, which commits in place: one store per replay.
    stores = []
    original = ledger.FactStore.__init__

    def counted(store, spaces):
        stores.append(store)
        original(store, spaces)

    monkeypatch.setattr(ledger.FactStore, "__init__", counted)
    report = ledger.check_script(parse_script(chain_script(5000, True)))
    assert report.passed and report.fact_count == 15002
    assert len(stores) == 1


def test_a_failing_axiom_adds_none_of_its_facts(tmp_path, capsys):
    script = {
        "format": SCRIPT_FORMAT,
        "spaces": [{"name": "X"}],
        "axioms": [{"id": "bad", "facts": [
            h1("X", "torsion_free"), h1("X", "iso_to", rank=0, torsion=[3])
        ]}],
        "goals": [h1("X", "torsion_free")],
    }
    code, payload = check_ledger_json(script, tmp_path, capsys)
    assert code == 1
    report = payload["ledger"]
    assert report["axioms"][0]["ok"] is False
    assert report["fact_count"] == 0
    assert report["goals"] == [
        {"fact": "H^1(X) : torsion-free", "established": False, "chain": []}
    ]


def one_thom_step(copies, rank=0, torsion=(3,)):
    """H^1(P) from copies of H^0(C) = Z^rank + torsion by one thom_iso step; P = (X, Y)."""
    center = {
        "subject": {"space": "C", "degree": 0},
        "claim": {"kind": "iso_to", "rank": rank, "torsion": list(torsion)},
    }
    return {
        "format": SCRIPT_FORMAT,
        "spaces": [{"name": "C"}, {"name": "X"}, {"name": "Y"}, {"name": "P", "pair": ["X", "Y"]}],
        "axioms": [{"id": "center", "facts": [center]}],
        "steps": [{
            "id": "t",
            "rule": "thom_iso",
            "params": {"pair": "P", "center": "C", "copies": copies, "codim": 1, "degrees": [1]},
            "inputs": [center],
        }],
        "goals": [h1("P", "torsion_free")],
    }


def shipped_with(step_id, **params):
    script = shipped_json()
    next(s for s in script["steps"] if s["id"] == step_id)["params"].update(params)
    return script


HUGE_STEP_PARAMETERS = {
    "k": (lambda: shipped_with("s01", k=10**9), "s01"),
    "codim and degrees": (lambda: shipped_with("s05", codim=10**9, degrees=[10**9]), "s05"),
    "copies": (lambda: one_thom_step(10**9), "t"),
    "cover degree": (lambda: shipped_with("s11", cover_degree=2**61 - 1), "s11"),
}


@pytest.mark.parametrize("name", sorted(HUGE_STEP_PARAMETERS))
def test_a_huge_step_parameter_fails_its_step_quickly(name, tmp_path, capsys):
    make, step_id = HUGE_STEP_PARAMETERS[name]
    started = time.perf_counter()
    code, payload = check_ledger_json(make(), tmp_path, capsys)
    assert time.perf_counter() - started < 1.0
    assert code == 1
    [record] = [r for r in payload["ledger"]["steps"] if r["id"] == step_id]
    assert not record["ok"] and f"Error: step {step_id}: " in record["error"]


def test_a_step_whose_output_cannot_be_printed_commits_nothing(tmp_path, capsys):
    # Python prints no integer of more than 4300 digits; this rank has 4309.
    code, payload = check_ledger_json(one_thom_step(10**18, 10**4290, ()), tmp_path, capsys)
    assert code == 1
    report = payload["ledger"]
    assert report["steps"][0]["error"].startswith("ValueError: ")
    assert report["fact_count"] == len(report["axioms"][0]["facts"])
    assert report["goals"][0]["established"] is False


def test_huge_copies_of_a_torsion_free_center_pass_their_step(tmp_path, capsys):
    # Z^(10^30) taken 10^30 times is Z^(10^60); no chain of factors to bound.
    code, payload = check_ledger_json(one_thom_step(10**30, 10**30, ()), tmp_path, capsys)
    assert code == 0
    [record] = payload["ledger"]["steps"]
    assert record["ok"] and record["outputs"][0] == f"H^1(P) : iso(Z^{10**60})"


# ------------------------------------------------------- check-ledger fuzzing

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


# Integers whose size a checker must not spend work on: a degree, a count
# or a cover degree of this size fails its step, and no faster for less.
HUGE_INTEGERS = (10**9, 2**61 - 1, 10**30)


def script_shaped():
    """Arbitrary JSON under the script format's own keys."""
    return st.fixed_dictionaries(
        {"format": st.just(SCRIPT_FORMAT)},
        optional={key: JSON_VALUES for key in ("spaces", "axioms", "steps", "goals")},
    )


def mutate(data, doc, names):
    """Replace, delete or duplicate one node of ``doc``, found by a random walk.

    A replacement is arbitrary JSON, a small or a huge integer or one of
    ``names``.
    """
    replacement = st.one_of(
        JSON_VALUES,
        st.integers(-2, 12),
        st.sampled_from(HUGE_INTEGERS),
        st.sampled_from(names),
    )
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key = data.draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.integers(0, 4)):
            node = child
            continue
        action = data.draw(st.sampled_from(("replace", "delete", "duplicate")))
        if action == "replace":
            node[key] = data.draw(replacement)
        elif action == "delete":
            del node[key]
        elif isinstance(node, list):
            node.insert(key, json.loads(json.dumps(child)))
        else:
            node[data.draw(st.text(max_size=6))] = json.loads(json.dumps(child))
        return


def check_ledger_exit_code(doc, directory):
    return check_ledger_exit_code_of_bytes(json.dumps(doc).encode(), directory)


def check_ledger_exit_code_of_bytes(content, directory):
    path = directory / "fuzzed.proof"
    path.write_bytes(content)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["check-ledger", "--script", str(path)])


def assert_contract(content, directory):
    # Exit 2 is for a text that is not a script, and only for that.
    code = check_ledger_exit_code_of_bytes(content, directory)
    try:
        read_script(content)
    except ScriptFormatError:
        assert code == 2
    else:
        assert code in (0, 1)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


FUZZ = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def test_check_ledger_passes_the_unmutated_script(fuzz_dir):
    assert check_ledger_exit_code(shipped_json(), fuzz_dir) == 0


@FUZZ
@given(st.one_of(JSON_VALUES, script_shaped()))
def test_check_ledger_survives_arbitrary_json(fuzz_dir, doc):
    assert_contract(json.dumps(doc).encode(), fuzz_dir)


@FUZZ
@given(st.integers(1, 3), st.data())
def test_check_ledger_survives_mutated_scripts(fuzz_dir, mutations, data):
    doc = shipped_json()
    names = [space["name"] for space in doc["spaces"]]
    for _ in range(mutations):
        mutate(data, doc, names)
    assert_contract(json.dumps(doc).encode(), fuzz_dir)


@FUZZ
@given(st.one_of(st.binary(), st.text().map(str.encode)))
def test_check_ledger_survives_arbitrary_bytes(fuzz_dir, content):
    assert_contract(content, fuzz_dir)


# Integer values in the shipped text, which is printed one value to a line.
INTEGER_VALUES = [m.span() for m in re.finditer(r"(?<= )-?[0-9]+(?=,?\n)", SHIPPED_TEXT)]
KEYS = [m.start() for m in re.finditer(r'"[a-z_]+": ', SHIPPED_TEXT)]


@st.composite
def spliced_text(draw):
    """The shipped text with one lexical hazard spliced in."""
    text = SHIPPED_TEXT.encode()
    start, end = draw(st.sampled_from(INTEGER_VALUES))
    hazard = draw(st.sampled_from(("digits", "constant", "nesting", "duplicate", "bom", "byte")))
    if hazard == "digits":  # around the interpreter's 4300-digit limit
        digits = draw(st.integers(4290, 4310))
        return text[:start] + b"1" + b"0" * (digits - 1) + text[end:]
    if hazard == "constant":
        return text[:start] + draw(st.sampled_from((b"NaN", b"Infinity", b"-Infinity"))) + text[end:]
    if hazard == "nesting":
        depth = draw(st.sampled_from((1, 10, 500, 5000)))
        return text[:start] + b"[" * depth + text[start:end] + b"]" * depth + text[end:]
    if hazard == "duplicate":  # the same key twice in one object
        at = draw(st.sampled_from(KEYS))
        key = text[at:text.index(b":", at) + 1]
        return text[:at] + key + b" 0, " + text[at:]
    at = draw(st.integers(0, len(text)))
    if hazard == "bom":
        return text[:at] + "\ufeff".encode() + text[at:]
    return text[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + text[at:]


@FUZZ
@given(spliced_text())
def test_check_ledger_survives_spliced_text(fuzz_dir, content):
    assert_contract(content, fuzz_dir)
