"""The behaviour contract: the exit code and the SHA-256 of stdout of every run below.

The runs go through the in-process ``main``, each in both formats:

* ``ell-table``, ``cohomology`` and ``verify-proposition``;
* ``full-cert`` with seeds 0, 1 and 7;
* ``check-ledger`` on the shipped script, on each of its single-deletion
  mutants, on the census's fixed false scripts and on ``test_cli``'s
  malformed scripts.

``fixtures/contract.json`` holds what these runs gave when it was written, so
a change to it is a change of behaviour and is recorded as one.  From the root
of the repository, regenerate it with

    PYTHONPATH=src python tests/test_contract.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from test_census import fixed_cases
from test_cli import MALFORMED_SCRIPTS

from kummercert.cli import main
from kummercert.ledger import script_to_json_dict, without_axiom, without_step
from kummercert.proofscript import load_shipped_script, shipped_script_text

CONTRACT = Path(__file__).parent / "fixtures" / "contract.json"


def scripts():
    """Each check-ledger input, by name, as JSON text."""
    shipped = load_shipped_script()
    yield "shipped", shipped_script_text()
    for axiom in shipped.axioms:
        mutant = without_axiom(shipped, axiom.id)
        yield f"without axiom {axiom.id}", json.dumps(script_to_json_dict(mutant))
    for step in shipped.steps:
        mutant = without_step(shipped, step.id)
        yield f"without step {step.id}", json.dumps(script_to_json_dict(mutant))
    for name, document in fixed_cases():
        yield f"census: {name}", json.dumps(document)
    for name, edit in MALFORMED_SCRIPTS.items():
        document = json.loads(shipped_script_text())
        edit(document)
        yield f"malformed: {name}", json.dumps(document)


def runs(directory: Path):
    """Each run, by name, as the arguments of ``main`` before ``--format``."""
    for command in ("ell-table", "cohomology", "verify-proposition"):
        yield command, [command]
    for seed in (0, 1, 7):
        yield f"full-cert --seed {seed}", ["full-cert", "--seed", str(seed)]
    for i, (name, text) in enumerate(scripts()):
        path = directory / f"{i}.proof"
        path.write_text(text, encoding="utf-8")
        yield f"check-ledger {name}", ["check-ledger", "--script", str(path)]


def outcome(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def collect(directory: Path) -> dict:
    return {
        f"{name} --format {fmt}": outcome([*argv, "--format", fmt])
        for name, argv in runs(directory)
        for fmt in ("text", "json")
    }


def test_every_run_keeps_its_exit_code_and_stdout(tmp_path):
    expected = json.loads(CONTRACT.read_text())
    got = collect(tmp_path)
    assert sorted(got) == sorted(expected)
    assert {name: got[name] for name in got if got[name] != expected[name]} == {}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as tmp:
        contract = collect(Path(tmp))
    CONTRACT.write_text(json.dumps(contract, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(contract)} runs to {CONTRACT}")
