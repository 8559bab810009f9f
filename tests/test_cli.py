import importlib.resources
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import kummercert
from kummercert import kummer, linalg
from kummercert.cli import ConfigError, RunConfig, main, run
from kummercert.ledger import script_to_json_dict, without_axiom, without_step
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
    def broken():
        raise InvariantError("broken on purpose")

    monkeypatch.setattr("kummercert.cli.ell_table", broken)
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


def test_full_cert_builds_each_lattice_once(monkeypatch):
    degrees = []
    mat_pows = []
    coefficient_action = kummer.coefficient_action
    mat_pow = IntMatrix.mat_pow

    def counted_coefficient_action(action, q):
        degrees.append(q)
        return coefficient_action(action, q)

    def counted_mat_pow(self, e):
        mat_pows.append(e)
        return mat_pow(self, e)

    monkeypatch.setattr(kummer, "coefficient_action", counted_coefficient_action)
    monkeypatch.setattr(IntMatrix, "mat_pow", counted_mat_pow)
    code, _, _ = run(RunConfig("full-cert"))
    assert code == 0
    assert len(degrees) <= 6 and len(set(degrees)) == len(degrees)
    assert mat_pows == []


def test_full_cert_under_python_O_needs_no_asserts():
    env = dict(os.environ)
    src = str(Path(kummercert.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "kummercert.cli", "full-cert", "--format", "json"],
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-500:]
    # The golden report is the stdout of the same run without -O.
    assert proc.stdout == (GOLDEN / "full-cert-seed0.json").read_bytes()


def test_full_cert_runs_smith_normal_form_on_blocks_only(monkeypatch):
    # Lambda^3 and Lambda^4 of the rank-8 model have rank 56 and 70, but
    # their direct summands have rank at most 16.
    shapes = []
    smith_normal_form = linalg.smith_normal_form

    def counted(m):
        shapes.append(m.shape)
        return smith_normal_form(m)

    monkeypatch.setattr(linalg, "smith_normal_form", counted)
    code, _, _ = run(RunConfig("full-cert"))
    assert code == 0
    assert shapes and max(max(shape) for shape in shapes) <= 16


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


def test_a_rule_exception_fails_only_its_step(tmp_path, capsys):
    script = shipped_json()
    step = first_step(script, "combine_primes")
    step["params"]["first"] = 5
    path = tmp_path / "bad-parameter.proof"
    path.write_text(json.dumps(script))
    assert main(["check-ledger", "--script", str(path), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    validate(payload)
    records = payload["ledger"]["steps"]
    assert [r["id"] for r in records] == [s["id"] for s in script["steps"]]
    failed = [r for r in records if not r["ok"]]
    assert [r["id"] for r in failed] == [step["id"]]
    assert failed[0]["error"].startswith("TypeError: ")
    assert payload["ledger"]["first_failure"].startswith(f"step {step['id']}: TypeError")
