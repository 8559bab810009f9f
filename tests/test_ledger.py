import hashlib
import importlib.resources
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummercert import ledger, linalg
from kummercert.cohomology import LatticeAction
from kummercert.kummer import CertificateFailure, KummerModel
from kummercert.ledger import (
    Axiom,
    Claim,
    Fact,
    FactStore,
    GroupRef,
    InconsistentFactError,
    MissingInputError,
    ParameterMismatchError,
    SCRIPT_FORMAT,
    Script,
    ScriptFormatError,
    Step,
    UnknownRuleError,
    _commit,
    apply_rule,
    check_script,
    leaf_facts_from_computation,
    parse_script,
    script_to_json_dict,
    without_axiom,
    without_step,
)
from kummercert.linalg import FinAbGroup, IntMatrix
from kummercert.proofscript import load_shipped_script, shipped_script_text

SPACES = {"X": None, "Y": None, "Z": None, "(X,Y)": ("X", "Y")}


def ref(space, degree):
    return GroupRef(space, degree)


def store_with(*facts):
    store = FactStore(SPACES)
    for i, fact in enumerate(facts):
        store.add(fact, ("axiom", f"a{i}"))
    return store


# ------------------------------------------------------------- the fact store


def test_closure_is_zero_implies_torsion_free():
    store = store_with(Fact(ref("X", 3), Claim.is_zero()))
    assert Fact(ref("X", 3), Claim.torsion_free()) in store
    assert Fact(ref("X", 3), Claim.only_primes(())) in store


def test_closure_iso_to_bounds_primes():
    store = store_with(Fact(ref("X", 3), Claim.iso_to(FinAbGroup(2, (3, 9)))))
    assert Fact(ref("X", 3), Claim.only_primes((3,))) in store
    assert Fact(ref("X", 3), Claim.torsion_free()) not in store


def test_contradiction_detection_is_symmetric():
    bad = Claim.iso_to(FinAbGroup(0, (3,)))
    with pytest.raises(InconsistentFactError):
        store_with(Fact(ref("X", 3), bad), Fact(ref("X", 3), Claim.torsion_free()))
    with pytest.raises(InconsistentFactError):
        store_with(Fact(ref("X", 3), Claim.torsion_free()), Fact(ref("X", 3), bad))
    with pytest.raises(InconsistentFactError):
        store_with(
            Fact(ref("X", 3), bad),
            Fact(ref("X", 3), Claim.iso_to(FinAbGroup.zero())),
        )


def test_weaker_facts_never_retract_stronger_ones():
    store = store_with(
        Fact(ref("X", 3), Claim.torsion_free()),
        Fact(ref("X", 3), Claim.only_primes((5,))),
    )
    assert Fact(ref("X", 3), Claim.torsion_free()) in store
    assert Fact(ref("X", 3), Claim.only_primes((5,))) in store


def test_idempotent_re_add():
    store = store_with(Fact(ref("X", 1), Claim.torsion_free()))
    before = len(store)
    assert store.add(Fact(ref("X", 1), Claim.torsion_free()), ("axiom", "again")) == []
    assert len(store) == before


def test_torsion_equals_transports_both_ways():
    store = store_with(
        Fact(ref("X", 3), Claim.torsion_equals(ref("Y", 3))),
        Fact(ref("Y", 3), Claim.only_primes((2,))),
    )
    assert Fact(ref("X", 3), Claim.only_primes((2,))) in store
    store = store_with(
        Fact(ref("X", 3), Claim.torsion_free()),
        Fact(ref("Y", 3), Claim.torsion_equals(ref("X", 3))),
    )
    assert Fact(ref("Y", 3), Claim.torsion_free()) in store


def test_torsion_injection_transports_backwards_only():
    store = store_with(
        Fact(ref("X", 5), Claim.torsion_injects_into(ref("Y", 5))),
        Fact(ref("Y", 5), Claim.torsion_free()),
    )
    assert Fact(ref("X", 5), Claim.torsion_free()) in store
    store = store_with(
        Fact(ref("X", 5), Claim.torsion_injects_into(ref("Y", 5))),
        Fact(ref("X", 5), Claim.torsion_free()),
    )
    assert Fact(ref("Y", 5), Claim.torsion_free()) not in store


def test_undeclared_space_is_rejected():
    store = FactStore(SPACES)
    with pytest.raises(ParameterMismatchError):
        store.add(Fact(ref("Nowhere", 1), Claim.is_zero()), ("axiom", "a"))


@pytest.mark.parametrize(
    "mine, theirs, relation",
    [((2,), (4,), Claim.torsion_equals), ((4,), (2,), Claim.torsion_injects_into)],
    ids=["tors-equals", "tors-injects"],
)
def test_the_store_compares_torsion_primes_not_torsion_groups(mine, theirs, relation):
    # Known incompleteness: Z/2 and Z/4 have different torsion, and Z/4 does
    # not embed in Z/2, but both have the one torsion prime 2, so the store
    # accepts each unsatisfiable set.
    store = store_with(
        Fact(ref("X", 1), Claim.iso_to(FinAbGroup(0, mine))),
        Fact(ref("Y", 1), Claim.iso_to(FinAbGroup(0, theirs))),
        Fact(ref("X", 1), relation(ref("Y", 1))),
    )
    assert len(store) == 5


# ------------------------------------------------- the reference closure
#
# The closure before each claim carried its place in the lattice: every fact
# recomputes its exact group, its torsion bound and its implications.  Kept
# verbatim as the oracle that FactStore must equal, order and provenance too.

_TORSION_LEVEL = ("torsion_free", "only_primes")


def _exact_group(claim: Claim) -> FinAbGroup | None:
    if claim.kind == "is_zero":
        return FinAbGroup.zero()
    if claim.kind == "iso_to":
        return claim.group
    return None


def _torsion_bound(claim: Claim) -> frozenset[int] | None:
    """Upper bound on the torsion primes implied by the claim, if any."""
    if claim.kind in ("is_zero", "torsion_free"):
        return frozenset()
    if claim.kind == "only_primes":
        return claim.primes
    if claim.kind == "iso_to":
        return claim.group.torsion_primes()
    return None


class ReferenceStore(FactStore):
    def _check_consistent(self, fact: Fact) -> None:
        new_exact = _exact_group(fact.claim)
        new_bound = (
            _torsion_bound(fact.claim) if fact.claim.kind in _TORSION_LEVEL else None
        )
        for old in self._about.get(fact.subject, ()):
            old_exact = _exact_group(old.claim)
            if new_exact is not None and old_exact is not None and new_exact != old_exact:
                raise InconsistentFactError(
                    f"{fact.subject.render()} cannot be both {old_exact} and {new_exact}"
                )
            if new_exact is not None and old.claim.kind in _TORSION_LEVEL:
                bound = _torsion_bound(old.claim)
                if not new_exact.torsion_primes() <= bound:
                    raise InconsistentFactError(
                        f"{fact.render()} contradicts established {old.render()}"
                    )
            if new_bound is not None and old_exact is not None:
                if not old_exact.torsion_primes() <= new_bound:
                    raise InconsistentFactError(
                        f"{fact.render()} contradicts established {old.render()}"
                    )

    def add(self, fact: Fact, source: tuple) -> list[Fact]:
        """Insert a fact (idempotent) and its closure, depth first; return what was new."""
        added: list[Fact] = []
        stack = [(fact, source)]
        while stack:
            fact, source = stack.pop()
            if fact in self._facts:
                continue
            ledger._check_refs(self.spaces, ParameterMismatchError, fact.subject, fact.claim.other)
            self._check_consistent(fact)
            self._facts[fact] = source
            for ref in (fact.subject, fact.claim.other):  # other: a relation's second group
                if ref is not None:
                    self._about.setdefault(ref, []).append(fact)
            added.append(fact)
            # Reversed, so that the implications pop in the order listed.
            stack.extend((f, ("closure", tuple(p))) for f, p in reversed(self._implications(fact)))
        return added

    def _implications(self, fact: Fact) -> list[tuple[Fact, list[Fact]]]:
        out: list[tuple[Fact, list[Fact]]] = []
        subject, claim = fact.subject, fact.claim
        if claim.kind == "is_zero":
            out.append((Fact(subject, Claim.torsion_free()), [fact]))
        elif claim.kind == "iso_to":
            out.append((Fact(subject, Claim.only_primes(claim.group.torsion_primes())), [fact]))
            if claim.group.is_torsion_free:
                out.append((Fact(subject, Claim.torsion_free()), [fact]))
            if claim.group.is_zero:
                out.append((Fact(subject, Claim.is_zero()), [fact]))
        elif claim.kind == "torsion_free":
            out.append((Fact(subject, Claim.only_primes(())), [fact]))
        if claim.kind in _TORSION_LEVEL:
            if claim.kind == "only_primes" and not claim.primes:
                out.append((Fact(subject, Claim.torsion_free()), [fact]))
            for rel in self._about.get(subject, ()):
                rclaim = rel.claim
                if rclaim.kind == "torsion_equals":
                    peer = rclaim.other if rel.subject == subject else rel.subject
                    out.append((Fact(peer, claim), [fact, rel]))
                elif rclaim.kind == "torsion_injects_into" and rclaim.other == subject:
                    out.append((Fact(rel.subject, claim), [fact, rel]))
        elif claim.kind == "torsion_equals":
            for side, peer in ((subject, claim.other), (claim.other, subject)):
                for old in self._about.get(side, ()):
                    if old.claim.kind in _TORSION_LEVEL:
                        out.append((Fact(peer, old.claim), [old, fact]))
        elif claim.kind == "torsion_injects_into":
            for old in self._about.get(claim.other, ()):
                if old.claim.kind in _TORSION_LEVEL:
                    out.append((Fact(subject, old.claim), [old, fact]))
        return out


BIG_PRIME = 16777213  # the largest prime below FACTOR_BOUND = 2^24
GROUPS = st.builds(ref, st.sampled_from(sorted(SPACES)), st.integers(0, 3))
CHAINS = st.sampled_from([(), (2,), (4,), (2, 4), (3,), (9,), (3, 9), (BIG_PRIME,)])
CLAIMS = st.one_of(
    st.sampled_from([Claim.is_zero(), Claim.torsion_free()]),
    st.sets(st.sampled_from([2, 3, 5, BIG_PRIME])).map(Claim.only_primes),
    st.builds(FinAbGroup, st.integers(0, 2), CHAINS).map(Claim.iso_to),
    GROUPS.map(Claim.torsion_equals),  # the subject itself too: self-relations
    GROUPS.map(Claim.torsion_injects_into),
)
FACTS = st.builds(Fact, GROUPS, CLAIMS)


def commit_outcome(store, facts, source):
    """What ``_commit`` returns, or the class and message of what it raises."""
    try:
        return _commit(store, facts, source)
    except InconsistentFactError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(FACTS, min_size=1, max_size=40), st.lists(st.integers(1, 6), min_size=1))
def test_closure_equals_the_reference(facts, batch_sizes):
    store, reference = FactStore(SPACES), ReferenceStore(SPACES)
    start, sizes = 0, itertools.cycle(batch_sizes)
    while start < len(facts):
        batch = facts[start:start + next(sizes)]
        source = ("axiom", f"b{start}")
        assert commit_outcome(store, batch, source) == commit_outcome(reference, batch, source)
        assert list(store._facts.items()) == list(reference._facts.items())
        assert list(store._about.items()) == list(reference._about.items())
        start += len(batch)


def test_factoring_is_bounded_per_claim(monkeypatch):
    # One exact group and n bounds on it: each claim's primes are found once,
    # not once for every fact compared with it.
    factor = linalg.prime_factors
    calls = []
    monkeypatch.setattr(linalg, "prime_factors", lambda m: calls.append(m) or factor(m))
    counts = []
    for n in (200, 2000):
        monkeypatch.setattr(ledger, "_INTERNED", {})  # so that no claim is built yet
        calls.clear()
        group = ref("X", 1)
        facts = [Fact(group, Claim.iso_to(FinAbGroup(0, (BIG_PRIME,))))]
        facts += [Fact(group, Claim.only_primes({BIG_PRIME, p})) for p in range(2, n + 2)]
        axiom = Axiom(id="a", cite="test", facts=tuple(facts))
        report = check_script(Script(SCRIPT_FORMAT, {"X": None}, (axiom,), (), ()))
        assert report.passed and report.fact_count == n + 2
        counts.append(len(calls))
    assert counts[0] == counts[1]


# ------------------------------------------------------ the meaning of a fact
#
# A model assigns a group to each of 4 spaces x 2 degrees, and a fact is true
# in it when its claim holds of the groups it names.  Given only true facts,
# in any order, the store must accept them all and derive only true facts.

MODEL_SPACES = dict.fromkeys("ABCD")
MODEL_REFS = [GroupRef(space, degree) for space in MODEL_SPACES for degree in (0, 1)]
# Few small cyclic factors, so that equal and embedded torsion groups are common.
MODEL_GROUPS = st.builds(
    FinAbGroup.from_factors, st.integers(0, 1), st.lists(st.sampled_from([2, 4, 3, 9]), max_size=2)
)
PRIME_SETS = [frozenset(c) for n in range(4) for c in itertools.combinations((2, 3, 5), n)]


def elementary_divisors(group, p):
    """The exponents of the powers of ``p`` in ``group``'s torsion, largest first."""
    exponents = [linalg.prime_factors(d).get(p, 0) for d in group.torsion]
    return sorted([e for e in exponents if e], reverse=True)


def torsion_embeds(group, other):
    # Finite abelian p-groups: A embeds in B exactly when A's elementary
    # divisors, sorted, are dominated by B's, one by one.
    for p in group.torsion_primes():
        mine, theirs = elementary_divisors(group, p), elementary_divisors(other, p)
        if len(mine) > len(theirs) or any(a > b for a, b in zip(mine, theirs)):
            return False
    return True


def holds(model, fact):
    group, claim = model[fact.subject], fact.claim
    if claim.kind == "is_zero":
        return group.is_zero
    if claim.kind == "torsion_free":
        return group.is_torsion_free
    if claim.kind == "only_primes":
        return group.torsion_primes() <= claim.primes
    if claim.kind == "iso_to":
        return group == claim.group
    other = model[claim.other]
    if claim.kind == "torsion_equals":
        return group.torsion == other.torsion
    return torsion_embeds(group, other)


def test_the_embedding_criterion_compares_elementary_divisors():
    z = FinAbGroup.from_factors
    assert torsion_embeds(z(0, [2]), z(0, [4])) and not torsion_embeds(z(0, [4]), z(0, [2]))
    assert torsion_embeds(z(0, [2, 2]), z(0, [2, 4]))
    assert not torsion_embeds(z(0, [2, 2]), z(0, [8]))
    assert torsion_embeds(z(1, []), z(0, [])) and not torsion_embeds(z(0, [3]), z(2, [4]))


@settings(max_examples=150, deadline=None)
@given(st.lists(MODEL_GROUPS, min_size=len(MODEL_REFS), max_size=len(MODEL_REFS)), st.data())
def test_the_store_derives_only_facts_true_in_a_model(groups, data):
    model = dict(zip(MODEL_REFS, groups))
    store = FactStore(MODEL_SPACES)
    for fact in data.draw(st.lists(st.sampled_from(true_facts(model)), max_size=24)):
        store.add(fact, ("axiom", "a"))
    assert [f.render() for f in store._facts if not holds(model, f)] == []


def true_facts(model):
    """The facts about the model's groups, over a fixed set of claims, that are true in it."""
    claims = [Claim.is_zero(), Claim.torsion_free(), *map(Claim.only_primes, PRIME_SETS)]
    claims += [Claim.torsion_equals(r) for r in model]
    claims += [Claim.torsion_injects_into(r) for r in model]
    facts = [Fact(r, c) for r in model for c in [*claims, Claim.iso_to(model[r])]]
    return [fact for fact in facts if holds(model, fact)]


# ------------------------------------------------------ the meaning of a rule
#
# A rule is sound when its conclusion holds in every model of its hypothesis.
# Each model below realizes a rule's hypothesis on the pair P = (X, Y) in
# degree 0, where H^0(P) -> H^0(X) -> H^0(Y) -> H^1(P) is exact; groups the
# hypothesis says nothing about are drawn freely.  The rule is applied among
# other true facts, and everything the store then holds must be true.

RULE_SPACES = {"X": None, "Y": None, "P": ("X", "Y")}
ZERO, SOURCE, TARGET, NEXT = ref("P", 0), ref("X", 0), ref("Y", 0), ref("P", 1)


@st.composite
def subgroups(draw, group):
    """A group isomorphic to a subgroup of ``group``.

    Z^r for r up to its rank, plus a subgroup Z/e of each cyclic factor
    Z/d (e divides d): every subgroup's isomorphism type arises this way.
    """
    rank = draw(st.integers(0, group.rank))
    divisors = [[e for e in range(1, d + 1) if d % e == 0] for d in group.torsion]
    factors = [draw(st.sampled_from(choices)) for choices in divisors]
    return FinAbGroup.from_factors(rank, [e for e in factors if e > 1])


def combine_primes_model(draw):
    # Any model: both bounds on one group hold, so their intersection does.
    model = {r: draw(MODEL_GROUPS) for r in (SOURCE, TARGET, ZERO, NEXT)}
    subject = draw(st.sampled_from(list(model)))
    bounds = [p for p in PRIME_SETS if model[subject].torsion_primes() <= p]
    first, second = (sorted(draw(st.sampled_from(bounds))) for _ in range(2))
    params = {"subject": subject.to_json_dict(), "first": first, "second": second}
    inputs = [Fact(subject, Claim.only_primes(first)), Fact(subject, Claim.only_primes(second))]
    return model, params, inputs, Fact(subject, Claim.only_primes(set(first) & set(second)))


def les_inject_model(draw):
    # H^0(P) = 0, so H^0(X) is a subgroup of H^0(Y).
    target = draw(MODEL_GROUPS)
    model = {ZERO: FinAbGroup.zero(), SOURCE: draw(subgroups(target)), TARGET: target}
    model[NEXT] = draw(MODEL_GROUPS)
    params = {"zero": ZERO.to_json_dict(), "source": SOURCE.to_json_dict()}
    params |= {"target": TARGET.to_json_dict()}
    conclusion = Fact(SOURCE, Claim.torsion_injects_into(TARGET))
    return model, params, [Fact(ZERO, Claim.is_zero())], conclusion


def les_torsion_equal_model(draw):
    # As for les_inject, and the quotient H^0(Y) / H^0(X) lies in the
    # torsion-free H^1(P): so it is free of some rank m, and H^0(Y) = H^0(X) + Z^m.
    source, m = draw(MODEL_GROUPS), draw(st.integers(0, 2))
    target = source.direct_sum(FinAbGroup.free(m))
    model = {ZERO: FinAbGroup.zero(), SOURCE: source, TARGET: target}
    model[NEXT] = FinAbGroup.free(m + draw(st.integers(0, 1)))
    params = {"zero": ZERO.to_json_dict(), "left": SOURCE.to_json_dict()}
    params |= {"mid": TARGET.to_json_dict(), "right": NEXT.to_json_dict()}
    inputs = [Fact(ZERO, Claim.is_zero()), Fact(NEXT, Claim.torsion_free())]
    return model, params, inputs, Fact(SOURCE, Claim.torsion_equals(TARGET))


RULE_MODELS = {
    "combine_primes": combine_primes_model,
    "les_inject": les_inject_model,
    "les_torsion_equal": les_torsion_equal_model,
}


@pytest.mark.parametrize("rule", sorted(RULE_MODELS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_rule_derives_only_facts_true_in_every_model_of_its_hypothesis(rule, data):
    model, params, inputs, conclusion = RULE_MODELS[rule](data.draw)
    model |= {r: data.draw(MODEL_GROUPS) for r in (ref("X", 1), ref("Y", 1))}
    assert all(holds(model, fact) for fact in inputs)
    store = FactStore(RULE_SPACES)
    for fact in [*data.draw(st.lists(st.sampled_from(true_facts(model)), max_size=12)), *inputs]:
        store.add(fact, ("axiom", "a"))
    apply_rule(store, step(rule, params, inputs))
    assert conclusion in store
    assert [f.render() for f in store._facts if not holds(model, f)] == []


# -------------------------------------------------------------------- rules

# The rules section is the replay's trusted base: it stays small enough to
# review, so new rules or declarations cannot grow it unnoticed.
RULES_SECTION_BUDGET = 292


def test_the_rules_section_stays_within_its_budget():
    lines = Path(ledger.__file__).read_text().splitlines()
    start = lines.index("# rules")
    end = next(i for i, line in enumerate(lines) if line.startswith("def _commit("))
    assert start < end
    assert end - start < RULES_SECTION_BUDGET


def step(rule, params, inputs=(), step_id="t1"):
    return Step(id=step_id, rule=rule, cite="test", params=params, inputs=tuple(inputs))


def test_transfer_cover_rule():
    total_tf = Fact(ref("X", 3), Claim.torsion_free())
    store = store_with(total_tf)
    apply_rule(
        store,
        step(
            "transfer_cover",
            {"cover_degree": 3, "total": "X", "base": "Y", "k": 3},
            [total_tf],
        ),
    )
    assert Fact(ref("Y", 3), Claim.only_primes((3,))) in store


def test_combine_primes_rule():
    facts = [
        Fact(ref("Y", 3), Claim.only_primes((3,))),
        Fact(ref("Y", 3), Claim.only_primes((2,))),
    ]
    store = store_with(*facts)
    apply_rule(
        store,
        step(
            "combine_primes",
            {"subject": ref("Y", 3).to_json_dict(), "first": [3], "second": [2]},
            facts,
        ),
    )
    assert Fact(ref("Y", 3), Claim.torsion_free()) in store


def test_thom_iso_rule():
    center_zero = Fact(ref("Z", 1), Claim.is_zero())
    center_iso = Fact(ref("Z", 0), Claim.iso_to(FinAbGroup.free(1)))
    store = store_with(center_zero, center_iso)
    apply_rule(
        store,
        step(
            "thom_iso",
            {"pair": "(X,Y)", "center": "Z", "copies": 81, "codim": 4,
             "degrees": [3, 4, 5]},
            [center_iso, center_zero],
        ),
    )
    assert Fact(ref("(X,Y)", 3), Claim.is_zero()) in store  # negative shift
    assert Fact(ref("(X,Y)", 4), Claim.iso_to(FinAbGroup.free(81))) in store
    assert Fact(ref("(X,Y)", 5), Claim.is_zero()) in store
    center_z3 = Fact(ref("Z", 0), Claim.iso_to(FinAbGroup(0, (3,))))
    params = {"pair": "(X,Y)", "center": "Z", "copies": 3, "codim": 1, "degrees": [1]}
    store = store_with(center_z3)
    apply_rule(store, step("thom_iso", params, [center_z3]))
    assert Fact(ref("(X,Y)", 1), Claim.iso_to(FinAbGroup(0, (3, 3, 3)))) in store
    store = store_with(center_z3)
    with pytest.raises(ParameterMismatchError, match="over 10000 factors"):
        too_many = params | {"copies": 10**4 + 1}
        apply_rule(store, step("thom_iso", too_many, [center_z3]))
    assert list(store._facts) == list(store_with(center_z3)._facts)


def test_unknown_rule_and_missing_input():
    store = FactStore(SPACES)
    with pytest.raises(UnknownRuleError):
        apply_rule(store, step("majorize", {}))
    with pytest.raises(MissingInputError):
        apply_rule(
            store,
            step(
                "transfer_cover",
                {"cover_degree": 2, "total": "X", "base": "Y", "k": 3},
                [Fact(ref("X", 3), Claim.torsion_free())],
            ),
        )
    assert len(store) == 0


def test_input_list_must_match_exactly():
    zero = Fact(ref("(X,Y)", 3), Claim.is_zero())
    tf = Fact(ref("(X,Y)", 4), Claim.torsion_free())
    extra = Fact(ref("Z", 0), Claim.torsion_free())
    store = store_with(zero, tf, extra)
    params = {
        "zero": ref("(X,Y)", 3).to_json_dict(),
        "left": ref("X", 3).to_json_dict(),
        "mid": ref("Y", 3).to_json_dict(),
        "right": ref("(X,Y)", 4).to_json_dict(),
    }
    apply_rule(store, step("les_torsion_equal", params, [zero, tf]))
    assert Fact(ref("X", 3), Claim.torsion_equals(ref("Y", 3))) in store
    established = list(store._facts)
    with pytest.raises(ParameterMismatchError):
        apply_rule(store, step("les_torsion_equal", params, [zero, tf, extra]))
    with pytest.raises(ParameterMismatchError):
        apply_rule(store, step("les_torsion_equal", params, [zero]))
    assert list(store._facts) == established


def replay_with_inputs(script, step_id, inputs):
    """The report of ``script`` with one step's inputs replaced, and that step's record."""
    steps = tuple(
        s.replace(inputs=tuple(inputs)) if s.id == step_id else s for s in script.steps
    )
    report = check_script(script.replace(steps=steps))
    return report, next(r for r in report.steps if r.id == step_id)


@pytest.mark.parametrize("step_id", [s.id for s in load_shipped_script().steps])
def test_every_rule_takes_exactly_its_declared_inputs(shipped, step_id):
    inputs = next(s for s in shipped.steps if s.id == step_id).inputs
    for i in range(len(inputs)):
        _, record = replay_with_inputs(shipped, step_id, inputs[:i] + inputs[i + 1:])
        assert not record.ok
    unused = next(f for a in shipped.axioms for f in a.facts if f not in inputs)
    _, record = replay_with_inputs(shipped, step_id, inputs + (unused,))
    assert not record.ok
    assert record.error.startswith(f"ParameterMismatchError: step {step_id}: inputs must be")
    report, record = replay_with_inputs(shipped, step_id, inputs[::-1])
    assert record.ok and report.passed


def test_apply_rule_is_idempotent():
    total_tf = Fact(ref("X", 3), Claim.torsion_free())
    # A weaker bound on the step's subject, so that the step extends an index entry.
    store = store_with(total_tf, Fact(ref("Y", 3), Claim.only_primes((3, 5))))
    the_step = step(
        "transfer_cover",
        {"cover_degree": 3, "total": "X", "base": "Y", "k": 3},
        [total_tf],
    )
    assert apply_rule(store, the_step) == ("H^3(Y) : only-primes(3)",)
    facts_after = list(store._facts.items())
    about_after = {group: list(facts) for group, facts in store._about.items()}
    assert apply_rule(store, the_step) == ()
    assert list(store._facts.items()) == facts_after and store._about == about_after


def test_a_step_failing_mid_closure_leaves_the_store_as_it_was():
    # H^1 carries X's torsion-freeness to Y and adds closure facts; H^2 then
    # contradicts Y's established Z/3 after its relation is already indexed.
    store = store_with(
        Fact(ref("X", 1), Claim.torsion_free()),
        Fact(ref("X", 2), Claim.torsion_free()),
        Fact(ref("Y", 2), Claim.iso_to(FinAbGroup(0, (3,)))),
    )
    facts_before = list(store._facts.items())
    about_before = {group: list(facts) for group, facts in store._about.items()}
    the_step = step(
        "complement_iso",
        {"manifold": "X", "complement": "Y", "dim": 8, "removed_points": 1, "degrees": [1, 2]},
    )
    with pytest.raises(InconsistentFactError):
        apply_rule(store, the_step)
    assert list(store._facts.items()) == facts_before
    assert store._about == about_before


# ------------------------------------------------------------ whole scripts


def test_shipped_script_passes(shipped):
    report = check_script(shipped)
    assert report.passed
    assert report.grounded
    assert all(goal.established for goal in report.goals)
    assert [g.fact for g in report.goals] == [
        f"H^{k}(K2A) : torsion-free" for k in range(9)
    ]


def test_builder_matches_shipped_file(script, shipped):
    assert script_to_json_dict(script) == script_to_json_dict(shipped)


# The builder rebuilds only the computation-backed axioms, and reports echo
# neither cites nor step params, so this digest is what catches any other
# edit to the shipped file.
SHIPPED_SCRIPT_SHA256 = "0987bfcc9b36342ea227cf6b4f13fa37eb01605f343fd7c963df0bef78ce66b2"


def test_shipped_file_is_the_reviewed_one():
    data = importlib.resources.files("kummercert").joinpath("data/kummer.proof").read_bytes()
    assert hashlib.sha256(data).hexdigest() == SHIPPED_SCRIPT_SHA256, (
        "data/kummer.proof changed; update SHIPPED_SCRIPT_SHA256 only together "
        "with a reviewed edit of the script"
    )


def test_report_replay_is_deterministic(shipped):
    first = check_script(shipped)
    second = check_script(shipped)
    assert json.dumps(first.to_json_dict()) == json.dumps(second.to_json_dict())
    assert first.to_text() == second.to_text()


def test_goal_chains_are_grounded_in_axioms(shipped):
    report = check_script(shipped)
    for goal in report.goals:
        assert goal.chain
        assert all("UNGROUNDED" not in line for line in goal.chain)
        assert any("axiom" in line for line in goal.chain)


def test_replay_produces_the_known_relative_groups(shipped):
    report = check_script(shipped)
    outputs = [line for s in report.steps for line in s.outputs]
    # Thom isomorphisms on the 81-point loci.
    assert "H^4(A,A_minus_A3) : iso(Z^81)" in outputs
    assert "H^4(Uprime,U) : iso(Z^81)" in outputs
    assert "H^5(Uprime,U) : is-zero" in outputs
    assert "H^6(A2tilde,Wtilde) : iso(Z^162)" in outputs


def test_empty_script_fails_its_goal():
    empty = Script(
        format=SCRIPT_FORMAT,
        spaces={"X": None},
        axioms=(),
        steps=(),
        goals=(Fact(ref("X", 3), Claim.torsion_free()),),
    )
    report = check_script(empty)
    assert not report.passed
    assert "goal not established" in report.first_failure


def test_deleting_totaro_axiom_breaks_the_transfer_step(script):
    report = check_script(without_axiom(script, "ax_totaro_hilb2"))
    assert not report.passed
    failed_rules = {s.rule for s in report.steps if not s.ok}
    assert "transfer_cover" in failed_rules


def test_deleting_a_leaf_fact_breaks_the_spectral_step(script):
    report = check_script(without_axiom(script, "cv_p1_q2"))
    assert not report.passed
    failed = {s.id for s in report.steps if not s.ok}
    assert "s01" in failed


def test_unknown_mutation_targets_raise(script):
    with pytest.raises(KeyError):
        without_axiom(script, "no_such_axiom")
    with pytest.raises(KeyError):
        without_step(script, "s99")


# ---------------------------------------------------------- script format


def test_parse_rejects_bad_format(shipped):
    d = script_to_json_dict(shipped)
    d["format"] = "kummer-proof/999"
    with pytest.raises(ScriptFormatError):
        parse_script(d)


def test_parse_rejects_undeclared_space(shipped):
    d = script_to_json_dict(shipped)
    d["goals"].append({"subject": {"space": "Mystery", "degree": 3},
                       "claim": {"kind": "torsion_free"}})
    with pytest.raises(ScriptFormatError):
        parse_script(d)


def test_parse_rejects_duplicate_ids(shipped):
    d = script_to_json_dict(shipped)
    d["axioms"].append(dict(d["axioms"][0]))
    with pytest.raises(ScriptFormatError):
        parse_script(d)


def test_the_writer_gives_back_the_shipped_bytes(shipped):
    # The ledger benchmark writes its inputs with script_to_json_dict, so this keeps them fixed.
    assert json.dumps(script_to_json_dict(shipped), indent=2) + "\n" == shipped_script_text()


def test_script_roundtrip(shipped):
    assert script_to_json_dict(parse_script(script_to_json_dict(shipped))) == \
        script_to_json_dict(shipped)


# ------------------------------------------------------ computation axioms


def test_leaf_facts_structure(model):
    axioms = leaf_facts_from_computation(model)
    assert len(axioms) == 10
    ids = [a.id for a in axioms]
    assert "cv_p1_q4" in ids and "cfix_q5" in ids
    assert all(a.computation for a in axioms)
    tag = model.content_tag()
    assert all(tag in a.cite for a in axioms)


def test_leaf_facts_refuse_tampered_context():
    # The trivial action on Z^8 has non-zero even-degree cohomology.
    trivial = KummerModel(LatticeAction(IntMatrix.identity(8)))
    with pytest.raises(CertificateFailure, match=r"^H\^2\(A3, H\^1\) = .*, expected 0$"):
        leaf_facts_from_computation(trivial)
