"""The README and the modules' export lists agree with the code."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import kummercert
from kummercert import ledger

README = (Path(__file__).parent.parent / "README.md").read_text()
MODULES = sorted(m.name for m in pkgutil.iter_modules(kummercert.__path__))


def test_readme_lists_exactly_the_ledger_rules():
    listed = re.search(r"Rules: (.*?);", README, re.S).group(1)
    assert re.findall(r"`(\w+)`", listed) == sorted(ledger._RULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"kummercert.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
