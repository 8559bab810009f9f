"""The README, the modules' export lists and the ledger's key tables agree with the code.

No check in the package is an ``assert``.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import kummercert
from kummercert import cohomology, ledger, linalg

README = (Path(__file__).parent.parent / "README.md").read_text()
MODULES = sorted(m.name for m in pkgutil.iter_modules(kummercert.__path__))
SOURCES = sorted(Path(kummercert.__file__).parent.glob("*.py"))


def test_readme_lists_exactly_the_ledger_rules():
    listed = re.search(r"Rules: (.*?);", README, re.S).group(1)
    assert re.findall(r"`(\w+)`", listed) == sorted(ledger._RULES)


def key_tables() -> list[dict]:
    """Every key table in ``ledger``: the module-level ones, each claim kind's and each rule's."""
    # A table maps each key of one kind of JSON object to its (reader, default).
    tables = [spec for spec, _ in ledger._CLAIMS.values()]
    tables += [spec for spec, _ in ledger._RULES.values()]
    tables += [
        value for value in vars(ledger).values()
        if type(value) is dict and value and all(
            type(row) is tuple and len(row) == 2 and callable(row[0]) for row in value.values()
        )
    ]
    assert ledger._SCRIPT in tables and ledger._SPACE in tables
    return tables


def test_readme_names_every_key_of_every_section_table():
    keys = {key for table in key_tables() for key in table}
    assert sorted(key for key in keys if f"`{key}`" not in README) == []
    # Each rule's parameters, on its own line and in its table's order.
    for rule, (spec, _) in ledger._RULES.items():
        line = re.search(rf"^\* `{rule}`: (.*)$", README, re.M).group(1)
        assert re.findall(r"`(\w+)`", line) == list(spec), rule


def test_every_reader_in_a_key_table_has_a_message():
    # _keys names the expected type from _READERS; a reader missing there
    # would raise KeyError instead of the table's own error.
    readers = {reader for table in key_tables() for reader, _ in table.values()}
    assert sorted(r.__name__ for r in readers if r not in ledger._READERS) == []


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"kummercert.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_invariant_rests_on_assert(path):
    # ``python -O`` strips assert statements, so every check is an explicit raise.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


@pytest.mark.parametrize("name", ["cli.py", "proofscript.py"])
def test_only_the_ledger_decodes_script_text(name):
    # ledger.read_script is the one reader of a script, so neither module decodes JSON itself.
    tree = ast.parse((Path(kummercert.__file__).parent / name).read_text())
    decodes = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
        and isinstance(node.value, ast.Name) and node.value.id == "json"
        or isinstance(node, ast.ImportFrom) and node.module == "json"
    ]
    assert decodes == []


def test_the_ledger_builds_no_tuple_from_a_generator():
    # tuple(<generator>) grows its tuple by resizing, outside CPython's tuple
    # free lists, but frees it into one, and only a full collection empties
    # them.  With hash-consed facts a replay allocates too few GC-tracked
    # objects to trigger full collections, so per-replay tuples built this way
    # filled the free lists: over 3000 ledger-workload ops on CPython 3.11,
    # peak RSS grew 1.5 MiB, against 0.4 MiB with the tuples built from lists.
    # The lattice modules run on every cross-validation sample, so they keep
    # the same rule.
    for module in (ledger, linalg, cohomology):
        tree = ast.parse(Path(module.__file__).read_text())
        calls = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "tuple" and node.args
            and isinstance(node.args[0], ast.GeneratorExp)
        ]
        assert calls == [], module.__name__
