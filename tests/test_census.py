"""The soundness census: which edits of the shipped script the checker still accepts.

Every single-parameter mutant of every shipped step is built on the JSON
document, read by ``parse_script`` and replayed.  A mutant puts another
declared space name into a name or a group ref, or moves an integer, a list
entry or a ref degree by one.  Four fixed cases add the false statements
the checker is known to accept.  The set of accepted scripts must equal
``ACCEPTED``, each entry with the reason it passes:

* *unsound*: the checker accepts a false premise;
* *equivalent*: the mutant states the same geometry, or a weaker true conclusion.

A rule change that lets a new mutant pass, or stops one from passing, fails
here until the list is updated.
"""

import json

from kummercert.ledger import check_script, parse_script
from kummercert.proofscript import shipped_script_text

SHIPPED = json.loads(shipped_script_text())
NAMES = [space["name"] for space in SHIPPED["spaces"]]

_COPIES = "unsound: 81 copies of the center are cut out; a false iso follows that no goal reads"
_CODIM = "equivalent: a larger codim only adds center terms to an upper bound on the primes"
_COMPLEMENT = "unsound: Uprime is the complement in K2A, not {}"
_DIM = "unsound: K2A is a real 8-manifold; the rule only checks degree <= dim - 2"
_POINTS = "unsound: 81 points are removed; the rule reads removed_points and ignores it"

ACCEPTED = {
    "s03 copies=80": _COPIES,
    "s03 copies=82": _COPIES,
    "s05 codim=3": _CODIM,
    "s06 blowup=\"Wtilde\"": "unsound: A2tilde, not Wtilde, is the blow-up of A2 along S_prime",
    "s06 codim=3": _CODIM,
    "s07 copies=80": _COPIES,
    "s07 copies=82": _COPIES,
    "s10 codim=3": _CODIM,
    "s17 copies=80": _COPIES,
    "s17 copies=82": _COPIES,
    "s20 complement=\"(A2tilde,Wtilde)\"": _COMPLEMENT.format("a pair"),
    "s20 complement=\"(Uprime,U)\"": _COMPLEMENT.format("a pair"),
    "s20 complement=\"A2\"": _COMPLEMENT.format("A2"),
    "s20 complement=\"A2tilde\"": _COMPLEMENT.format("A2tilde"),
    "s20 complement=\"A3,H^0(V)\"": _COMPLEMENT.format("a coefficient system"),
    "s20 complement=\"U\"": _COMPLEMENT.format("U"),
    "s20 complement=\"V_mod_A3\"": _COMPLEMENT.format("V_mod_A3"),
    "s20 complement=\"Vtilde_mod_A3\"": _COMPLEMENT.format("Vtilde_mod_A3"),
    "s20 complement=\"Wtilde\"": _COMPLEMENT.format("Wtilde"),
    "s20 dim=7": _DIM,
    "s20 dim=9": _DIM,
    "s20 removed_points=80": _POINTS,
    "s20 removed_points=82": _POINTS,
    "s21 homology_degree=3": "equivalent: tors H^4 = tors H^5 of K2A, s21's relation reversed",
    "two transfers from a point": "unsound: pt is no cover of RP2, and H^2(RP2) = Z/2",
    "duality on an undeclared manifold": "unsound: RP2 is not orientable, and H^2(RP2) = Z/2",
    "s01 with quotient K2A": "unsound: K2A is not V/A3, so H^3(K2A) skips the geometry",
    "tampered computed axioms": "unsound: the fixed rank is 8 and nothing computed cv_p1_q2",
}


def variants(value):
    """The values one edit of a parameter makes: another name, or a number moved by one."""
    if type(value) is str:
        return [name for name in NAMES if name != value]
    if type(value) is int:
        return [value - 1, value + 1]
    if type(value) is list:
        return [value[:i] + [v + d] + value[i + 1:] for i, v in enumerate(value) for d in (-1, 1)]
    space, degree = value["space"], value["degree"]
    return [{"space": name, "degree": degree} for name in NAMES if name != space] + [
        {"space": space, "degree": degree + d} for d in (-1, 1)
    ]


def mutants():
    """Each single-parameter mutant of the shipped script, with its name."""
    for i, step in enumerate(SHIPPED["steps"]):
        for key, value in step["params"].items():
            for new in variants(value):
                steps = list(SHIPPED["steps"])
                steps[i] = {**step, "params": {**step["params"], key: new}}
                yield f"{step['id']} {key}={json.dumps(new)}", {**SHIPPED, "steps": steps}


def torsion_free(space, degree):
    return {"subject": {"space": space, "degree": degree}, "claim": {"kind": "torsion_free"}}


def with_rp2(axioms=(), steps=(), goals=()):
    """The shipped script with a plain space RP2 and the given extra sections."""
    return {
        **SHIPPED,
        "spaces": SHIPPED["spaces"] + [{"name": "RP2"}],
        "axioms": SHIPPED["axioms"] + list(axioms),
        "steps": SHIPPED["steps"] + list(steps),
        "goals": SHIPPED["goals"] + list(goals),
    }


def transfer(step_id, degree):
    pt_h2_zero = {"subject": {"space": "pt", "degree": 2}, "claim": {"kind": "is_zero"}}
    params = {"cover_degree": degree, "total": "pt", "base": "RP2", "k": 2}
    return {"id": step_id, "rule": "transfer_cover", "params": params, "inputs": [pt_h2_zero]}


def bound(primes):
    return {"subject": {"space": "RP2", "degree": 2},
            "claim": {"kind": "only_primes", "primes": primes}}


def fixed_cases():
    """The added steps and tampered axioms that prove false statements."""
    pt_h2 = {"id": "ax_pt_h2", "cite": "cohomology of a point",
             "facts": [{"subject": {"space": "pt", "degree": 2}, "claim": {"kind": "is_zero"}}]}
    combine = {"id": "t3", "rule": "combine_primes", "inputs": [bound([2]), bound([3])],
               "params": {"subject": {"space": "RP2", "degree": 2}, "first": [2], "second": [3]}}
    yield "two transfers from a point", with_rp2(
        axioms=[pt_h2], steps=[transfer("t1", 2), transfer("t2", 3), combine],
        goals=[torsion_free("RP2", 2)],
    )
    rp2_h1 = {"id": "ax_rp2_h1", "cite": "H^1(RP2) = 0", "facts": [torsion_free("RP2", 1)]}
    duality = {"id": "t1", "rule": "duality_uct",
               "params": {"manifold": "RP2", "dim": 2, "homology_degree": 0}}
    yield "duality on an undeclared manifold", with_rp2(
        axioms=[rp2_h1], steps=[duality], goals=[torsion_free("RP2", 2)]
    )
    s01 = SHIPPED["steps"][0]
    shortcut = {**s01, "id": "s01_k2a", "params": {**s01["params"], "quotient": "K2A"}}
    yield "s01 with quotient K2A", {**SHIPPED, "steps": SHIPPED["steps"] + [shortcut]}
    axioms = []
    for axiom in SHIPPED["axioms"]:
        if axiom["id"] == "cfix_q3":
            fact = axiom["facts"][0]
            axiom = {**axiom, "facts": [{**fact, "claim": {**fact["claim"], "rank": 9}}]}
        elif axiom["id"] == "cv_p1_q2":
            axiom = {**axiom, "cite": "computed: trust me"}
        axioms.append(axiom)
    yield "tampered computed axioms", {**SHIPPED, "axioms": axioms}


def test_the_census_counts_every_single_parameter_mutant():
    assert sum(1 for _ in mutants()) == 1488


def test_the_checker_accepts_exactly_the_listed_scripts():
    cases = [*mutants(), *fixed_cases()]
    accepted = {name for name, document in cases if check_script(parse_script(document)).passed}
    assert accepted == set(ACCEPTED)
