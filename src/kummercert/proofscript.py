"""The shipped certificate script for the Kummer-fourfold torsion theorem.

``data/kummer.proof`` is the one source of the deduction: the cast of
spaces, the geometric axioms with their citations, the ordered rule
applications, and the torsion-freeness goals in every degree 0..8.
``build_script`` rebuilds only its computation-backed axioms, from a live
lattice model, so a certification run can check that the shipped file
still records what the model computes.
"""

from __future__ import annotations

import importlib.resources

from .kummer import KummerModel
from .ledger import Script, leaf_facts_from_computation, read_script

__all__ = ["build_script", "load_shipped_script", "shipped_script_text"]


def build_script(model: KummerModel) -> Script:
    """The shipped script with its computation-backed axioms rebuilt from ``model``."""
    shipped = load_shipped_script()
    geometric = tuple(a for a in shipped.axioms if not a.computation)
    return shipped.replace(axioms=geometric + leaf_facts_from_computation(model))


def shipped_script_text() -> str:
    return (
        importlib.resources.files("kummercert")
        .joinpath("data/kummer.proof")
        .read_text(encoding="utf-8")
    )


def load_shipped_script() -> Script:
    return read_script(shipped_script_text())
