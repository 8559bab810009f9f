"""A small replayable certificate checker for torsion bookkeeping.

A *script* declares a table of named spaces, a list of axioms (facts about
named cohomology groups, each carrying a citation), an ordered list of
typed inference steps, and a list of goal facts.  Checking replays the
steps in order: each step names a rule, lists the exact facts it consumes,
and contributes new facts.  Nothing is ever guessed: a step whose inputs
are not already established fails, and the report records the failure
instead of aborting.

Facts are claims about a group ``H^degree(space)``:

* ``is_zero``                     -- the group is zero;
* ``torsion_free``                -- the torsion subgroup is zero;
* ``only_primes``                 -- torsion primes lie in a given set;
* ``iso_to``                      -- the group is a given explicit group;
* ``torsion_equals``              -- same torsion as another named group;
* ``torsion_injects_into``        -- torsion embeds into another's torsion.

The store closes the fact set under a fixed lattice of implications
(``is_zero`` implies ``torsion_free`` implies ``only_primes({})``; torsion
equalities transport torsion bounds both ways; injections transport them
backwards) and rejects contradictory claims no matter the insertion
order.  Two ``only_primes`` bounds on the same group do *not* merge
automatically; intersecting them is the explicit ``combine_primes`` rule.

Script files are JSON with sections ``spaces``, ``axioms``, ``steps`` and
``goals``; a missing key or a value of the wrong type (a degree that is
not a JSON integer, say) is a ``ScriptFormatError``.  Reports have JSON
and plain-text forms and are deterministic: checking the same script
twice yields byte-identical output.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .kummer import CertificateFailure, KummerContext
from .linalg import FinAbGroup, prime_factors

__all__ = [
    "Axiom",
    "Claim",
    "Fact",
    "FactStore",
    "GroupRef",
    "InconsistentFactError",
    "LedgerError",
    "MissingInputError",
    "ParameterMismatchError",
    "Report",
    "Script",
    "ScriptFormatError",
    "SpaceDecl",
    "Step",
    "UnknownRuleError",
    "apply_rule",
    "check_script",
    "leaf_facts_from_computation",
    "parse_script",
    "script_to_json_dict",
    "without_axiom",
    "without_step",
]

SCRIPT_FORMAT = "kummer-proof/1"


class LedgerError(Exception):
    """Base class for everything the checker can report."""


class UnknownRuleError(LedgerError):
    pass


class MissingInputError(LedgerError):
    pass


class ParameterMismatchError(LedgerError):
    pass


class InconsistentFactError(LedgerError):
    pass


class ScriptFormatError(LedgerError):
    pass


# --------------------------------------------------------------------------
# facts


def _json_int(value, what: str) -> int:
    # int("3"), int(2.5) and True would all pass a plain int() coercion.
    if type(value) is not int:
        raise ScriptFormatError(f"{what} must be an integer, got {value!r}")
    return value


def _json_str(value, what: str) -> str:
    if not isinstance(value, str):
        raise ScriptFormatError(f"{what} must be a string, got {value!r}")
    return value


@dataclass(frozen=True)
class GroupRef:
    """A named cohomology group: H^degree of a declared space."""

    space: str
    degree: int

    def render(self) -> str:
        if self.space.startswith("("):
            return f"H^{self.degree}{self.space}"
        return f"H^{self.degree}({self.space})"

    def to_json_dict(self) -> dict:
        return {"space": self.space, "degree": self.degree}

    @classmethod
    def from_json_dict(cls, d: dict) -> "GroupRef":
        return cls(_json_str(d["space"], "space"), _json_int(d["degree"], "degree"))


_CLAIM_KINDS = (
    "is_zero",
    "torsion_free",
    "only_primes",
    "iso_to",
    "torsion_equals",
    "torsion_injects_into",
)
_TORSION_LEVEL = ("torsion_free", "only_primes")


@dataclass(frozen=True)
class Claim:
    kind: str
    primes: frozenset[int] | None = None
    group: FinAbGroup | None = None
    other: GroupRef | None = None

    @classmethod
    def is_zero(cls) -> "Claim":
        return cls("is_zero")

    @classmethod
    def torsion_free(cls) -> "Claim":
        return cls("torsion_free")

    @classmethod
    def only_primes(cls, primes) -> "Claim":
        return cls("only_primes", primes=frozenset(int(p) for p in primes))

    @classmethod
    def iso_to(cls, group: FinAbGroup) -> "Claim":
        return cls("iso_to", group=group)

    @classmethod
    def torsion_equals(cls, other: GroupRef) -> "Claim":
        return cls("torsion_equals", other=other)

    @classmethod
    def torsion_injects_into(cls, other: GroupRef) -> "Claim":
        return cls("torsion_injects_into", other=other)

    def render(self) -> str:
        if self.kind == "is_zero":
            return "is-zero"
        if self.kind == "torsion_free":
            return "torsion-free"
        if self.kind == "only_primes":
            return f"only-primes({','.join(str(p) for p in sorted(self.primes))})"
        if self.kind == "iso_to":
            return f"iso({self.group})"
        if self.kind == "torsion_equals":
            return f"tors-equals({self.other.render()})"
        return f"tors-injects({self.other.render()})"

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "only_primes":
            out["primes"] = sorted(self.primes)
        elif self.kind == "iso_to":
            out["rank"] = self.group.rank
            out["torsion"] = list(self.group.torsion)
        elif self.kind in ("torsion_equals", "torsion_injects_into"):
            out["other"] = self.other.to_json_dict()
        return out

    @classmethod
    def from_json_dict(cls, d: dict) -> "Claim":
        kind = d["kind"]
        if kind not in _CLAIM_KINDS:
            raise ScriptFormatError(f"unknown claim kind {kind!r}")
        if kind == "only_primes":
            return cls.only_primes(_json_int(p, "prime") for p in d["primes"])
        if kind == "iso_to":
            rank = _json_int(d["rank"], "rank")
            torsion = tuple(_json_int(x, "invariant factor") for x in d["torsion"])
            return cls.iso_to(FinAbGroup(rank, torsion))
        if kind in ("torsion_equals", "torsion_injects_into"):
            return cls(kind, other=GroupRef.from_json_dict(d["other"]))
        return cls(kind)


@dataclass(frozen=True)
class Fact:
    subject: GroupRef
    claim: Claim

    def render(self) -> str:
        return f"{self.subject.render()} : {self.claim.render()}"

    def to_json_dict(self) -> dict:
        return {"subject": self.subject.to_json_dict(), "claim": self.claim.to_json_dict()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Fact":
        return cls(GroupRef.from_json_dict(d["subject"]), Claim.from_json_dict(d["claim"]))


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


# --------------------------------------------------------------------------
# the fact store


class FactStore:
    """Insertion-ordered fact set with closure and contradiction detection."""

    def __init__(self, spaces: frozenset[str]):
        self._spaces = spaces
        self._facts: dict[Fact, tuple] = {}
        self._by_subject: dict[GroupRef, list[Fact]] = {}
        self._relations: dict[GroupRef, list[Fact]] = {}

    def copy(self) -> "FactStore":
        new = FactStore(self._spaces)
        new._facts = dict(self._facts)
        new._by_subject = {k: list(v) for k, v in self._by_subject.items()}
        new._relations = {k: list(v) for k, v in self._relations.items()}
        return new

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._facts

    def __len__(self) -> int:
        return len(self._facts)

    def facts_list(self) -> list[Fact]:
        return list(self._facts)

    def provenance(self, fact: Fact) -> tuple:
        return self._facts[fact]

    def _validate_ref(self, ref: GroupRef) -> None:
        if ref.space not in self._spaces:
            raise ParameterMismatchError(f"space {ref.space!r} is not declared")
        if ref.degree < 0:
            raise ParameterMismatchError(f"negative degree in {ref.render()}")

    def _check_consistent(self, fact: Fact) -> None:
        new_exact = _exact_group(fact.claim)
        new_bound = (
            _torsion_bound(fact.claim) if fact.claim.kind in _TORSION_LEVEL else None
        )
        if fact.claim.kind == "iso_to" or fact.claim.kind == "is_zero":
            new_bound = None  # the exact group subsumes its own bound
        for old in self._by_subject.get(fact.subject, ()):
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
        """Insert a fact (idempotent) and its closure; return what was new."""
        added: list[Fact] = []
        self._insert(fact, source, added)
        return added

    def _insert(self, fact: Fact, source: tuple, added: list[Fact]) -> None:
        if fact in self._facts:
            return
        self._validate_ref(fact.subject)
        if fact.claim.other is not None:
            self._validate_ref(fact.claim.other)
        self._check_consistent(fact)
        self._facts[fact] = source
        self._by_subject.setdefault(fact.subject, []).append(fact)
        if fact.claim.kind in ("torsion_equals", "torsion_injects_into"):
            self._relations.setdefault(fact.subject, []).append(fact)
            self._relations.setdefault(fact.claim.other, []).append(fact)
        added.append(fact)
        for implied, premises in self._implications(fact):
            self._insert(implied, ("closure", tuple(premises)), added)

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
            for rel in self._relations.get(subject, ()):
                rclaim = rel.claim
                if rclaim.kind == "torsion_equals":
                    peer = rclaim.other if rel.subject == subject else rel.subject
                    out.append((Fact(peer, claim), [fact, rel]))
                elif rclaim.kind == "torsion_injects_into" and rclaim.other == subject:
                    out.append((Fact(rel.subject, claim), [fact, rel]))
        elif claim.kind == "torsion_equals":
            for side, peer in ((subject, claim.other), (claim.other, subject)):
                for old in self._by_subject.get(side, ()):
                    if old.claim.kind in _TORSION_LEVEL:
                        out.append((Fact(peer, old.claim), [old, fact]))
        elif claim.kind == "torsion_injects_into":
            for old in self._by_subject.get(claim.other, ()):
                if old.claim.kind in _TORSION_LEVEL:
                    out.append((Fact(subject, old.claim), [old, fact]))
        return out


# --------------------------------------------------------------------------
# script structure


@dataclass(frozen=True)
class SpaceDecl:
    name: str
    pair: tuple[str, str] | None = None


@dataclass(frozen=True)
class Axiom:
    id: str
    cite: str
    facts: tuple[Fact, ...]
    computation: bool = False


@dataclass(frozen=True, eq=False)
class Step:
    id: str
    rule: str
    cite: str
    params: dict
    inputs: tuple[Fact, ...]


@dataclass(frozen=True, eq=False)
class Script:
    format: str
    spaces: tuple[SpaceDecl, ...]
    axioms: tuple[Axiom, ...]
    steps: tuple[Step, ...]
    goals: tuple[Fact, ...]

    def space_names(self) -> frozenset[str]:
        return frozenset(s.name for s in self.spaces)


def parse_script(d: dict) -> Script:
    """The script in a JSON document; raises ScriptFormatError if it is malformed."""
    try:
        return _parse_script(d)
    except KeyError as exc:
        raise ScriptFormatError(f"malformed script: missing key {exc}") from None
    except (TypeError, ValueError, AttributeError) as exc:
        # A section of the wrong shape, met while reading it.
        raise ScriptFormatError(f"malformed script: {exc}") from None


def _parse_script(d: dict) -> Script:
    if not isinstance(d, dict):
        raise ScriptFormatError("script must be a JSON object")
    if d.get("format") != SCRIPT_FORMAT:
        raise ScriptFormatError(f"unsupported script format {d.get('format')!r}")
    spaces = []
    plain: set[str] = set()
    for s in d.get("spaces", ()):
        name = _json_str(s["name"], "space name")
        pair = None
        if "pair" in s:
            pair = tuple(_json_str(x, "pair member") for x in s["pair"])
            if len(pair) != 2:
                raise ScriptFormatError(f"pair space {name!r} must name two spaces")
        spaces.append(SpaceDecl(name, pair))
        if pair is None:
            plain.add(name)
    names = {s.name for s in spaces}
    if len(names) != len(spaces):
        raise ScriptFormatError("duplicate space names")
    for s in spaces:
        if s.pair is not None:
            for member in s.pair:
                if member not in plain:
                    raise ScriptFormatError(
                        f"pair space {s.name!r} refers to undeclared space {member!r}"
                    )

    def fact(fd: dict) -> Fact:
        f = Fact.from_json_dict(fd)
        if f.subject.space not in names:
            raise ScriptFormatError(f"undeclared space {f.subject.space!r}")
        if f.subject.degree < 0:
            raise ScriptFormatError(f"negative degree in {f.subject.render()}")
        if f.claim.other is not None and f.claim.other.space not in names:
            raise ScriptFormatError(f"undeclared space {f.claim.other.space!r}")
        return f

    axioms = []
    seen_ax: set[str] = set()
    for a in d.get("axioms", ()):
        aid = _json_str(a["id"], "axiom id")
        if aid in seen_ax:
            raise ScriptFormatError(f"duplicate axiom id {aid!r}")
        seen_ax.add(aid)
        axioms.append(
            Axiom(
                id=aid,
                cite=str(a.get("cite", "")),
                facts=tuple(fact(fd) for fd in a["facts"]),
                computation=bool(a.get("computation", False)),
            )
        )
    steps = []
    seen_st: set[str] = set()
    for s in d.get("steps", ()):
        sid = _json_str(s["id"], "step id")
        if sid in seen_st:
            raise ScriptFormatError(f"duplicate step id {sid!r}")
        seen_st.add(sid)
        params = s.get("params", {})
        if not isinstance(params, dict):
            raise ScriptFormatError(f"step {sid}: params must be a JSON object")
        steps.append(
            Step(
                id=sid,
                rule=_json_str(s["rule"], "rule"),
                cite=str(s.get("cite", "")),
                params=dict(params),
                inputs=tuple(fact(fd) for fd in s.get("inputs", ())),
            )
        )
    goals = tuple(fact(fd) for fd in d.get("goals", ()))
    return Script(SCRIPT_FORMAT, tuple(spaces), tuple(axioms), tuple(steps), goals)


def script_to_json_dict(script: Script) -> dict:
    spaces = []
    for s in script.spaces:
        entry: dict = {"name": s.name}
        if s.pair is not None:
            entry["pair"] = list(s.pair)
        spaces.append(entry)
    axioms = []
    for a in script.axioms:
        entry = {"id": a.id, "cite": a.cite, "facts": [f.to_json_dict() for f in a.facts]}
        if a.computation:
            entry["computation"] = True
        axioms.append(entry)
    steps = [
        {
            "id": s.id,
            "rule": s.rule,
            "cite": s.cite,
            "params": s.params,
            "inputs": [f.to_json_dict() for f in s.inputs],
        }
        for s in script.steps
    ]
    return {
        "format": script.format,
        "spaces": spaces,
        "axioms": axioms,
        "steps": steps,
        "goals": [f.to_json_dict() for f in script.goals],
    }


def without_axiom(script: Script, axiom_id: str) -> Script:
    if all(a.id != axiom_id for a in script.axioms):
        raise KeyError(axiom_id)
    return dataclasses.replace(
        script, axioms=tuple(a for a in script.axioms if a.id != axiom_id)
    )


def without_step(script: Script, step_id: str) -> Script:
    if all(s.id != step_id for s in script.steps):
        raise KeyError(step_id)
    return dataclasses.replace(script, steps=tuple(s for s in script.steps if s.id != step_id))


# --------------------------------------------------------------------------
# rules


def _param(step: Step, key: str):
    try:
        return step.params[key]
    except KeyError:
        raise ParameterMismatchError(f"step {step.id}: missing parameter {key!r}") from None


def _param_ref(step: Step, key: str) -> GroupRef:
    value = _param(step, key)
    if not isinstance(value, dict):
        raise ParameterMismatchError(f"step {step.id}: parameter {key!r} must be a group ref")
    return GroupRef.from_json_dict(value)


def _param_int(step: Step, key: str) -> int:
    value = _param(step, key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParameterMismatchError(f"step {step.id}: parameter {key!r} must be an integer")
    return value


def _param_degrees(step: Step, key: str = "degrees") -> list[int]:
    value = _param(step, key)
    if not isinstance(value, list) or not all(isinstance(k, int) for k in value):
        raise ParameterMismatchError(f"step {step.id}: parameter {key!r} must be a degree list")
    return value


def _require(store: FactStore, step: Step, fact: Fact) -> None:
    if fact not in store:
        raise MissingInputError(f"step {step.id}: input not established: {fact.render()}")


def _check_inputs(step: Step, required: list[Fact]) -> None:
    if set(step.inputs) != set(required) or len(step.inputs) != len(required):
        want = ", ".join(f.render() for f in required) or "(none)"
        raise ParameterMismatchError(f"step {step.id}: inputs must be exactly: {want}")


def _inputs_by_subject(step: Step) -> dict[GroupRef, Fact]:
    out: dict[GroupRef, Fact] = {}
    for f in step.inputs:
        if f.subject in out:
            raise ParameterMismatchError(
                f"step {step.id}: duplicate input subject {f.subject.render()}"
            )
        out[f.subject] = f
    return out


def _bound_or_fail(step: Step, fact: Fact) -> frozenset[int]:
    bound = _torsion_bound(fact.claim)
    if bound is None:
        raise ParameterMismatchError(
            f"step {step.id}: input {fact.render()} carries no torsion information"
        )
    return bound


def _rule_thom_iso(store: FactStore, step: Step) -> list[Fact]:
    # H^k(pair) = (copies) disjoint summands of H^(k - codim)(center).
    pair = str(_param(step, "pair"))
    center = str(_param(step, "center"))
    copies = _param_int(step, "copies")
    codim = _param_int(step, "codim")
    if copies < 1 or codim < 1:
        raise ParameterMismatchError(f"step {step.id}: copies and codim must be positive")
    degrees = _param_degrees(step)
    by_subject = _inputs_by_subject(step)
    used: set[GroupRef] = set()
    outputs = []
    for k in degrees:
        subject = GroupRef(pair, k)
        j = k - codim
        if j < 0:
            outputs.append(Fact(subject, Claim.is_zero()))
            continue
        center_ref = GroupRef(center, j)
        fact = by_subject.get(center_ref)
        if fact is None:
            raise MissingInputError(
                f"step {step.id}: needs a fact about {center_ref.render()}"
            )
        _require(store, step, fact)
        used.add(center_ref)
        claim = fact.claim
        if claim.kind == "is_zero":
            out_claim = Claim.is_zero()
        elif claim.kind == "iso_to":
            out_claim = Claim.iso_to(claim.group.multiple(copies))
        elif claim.kind == "torsion_free":
            out_claim = Claim.torsion_free()
        elif claim.kind == "only_primes":
            out_claim = Claim.only_primes(claim.primes)
        else:
            raise ParameterMismatchError(
                f"step {step.id}: unusable center fact {fact.render()}"
            )
        outputs.append(Fact(subject, out_claim))
    if used != set(by_subject):
        raise ParameterMismatchError(f"step {step.id}: unused declared inputs")
    return outputs


def _rule_les_torsion_equal(store: FactStore, step: Step) -> list[Fact]:
    # Exact 0 -> left -> mid -> right with the leading term zero and the
    # right term torsion free: left and mid have the same torsion.
    zero = _param_ref(step, "zero")
    left = _param_ref(step, "left")
    mid = _param_ref(step, "mid")
    right = _param_ref(step, "right")
    required = [Fact(zero, Claim.is_zero()), Fact(right, Claim.torsion_free())]
    _check_inputs(step, required)
    for f in required:
        _require(store, step, f)
    return [Fact(left, Claim.torsion_equals(mid))]


def _rule_les_inject(store: FactStore, step: Step) -> list[Fact]:
    # Exact zero -> source -> target: torsion of source embeds in target's.
    zero = _param_ref(step, "zero")
    source = _param_ref(step, "source")
    target = _param_ref(step, "target")
    required = [Fact(zero, Claim.is_zero())]
    _check_inputs(step, required)
    _require(store, step, required[0])
    return [Fact(source, Claim.torsion_injects_into(target))]


def _rule_transfer_cover(store: FactStore, step: Step) -> list[Fact]:
    # Degree-d covering total -> base: restriction followed by transfer is
    # multiplication by d, so base torsion away from d injects into the
    # total space's torsion.
    d = _param_int(step, "cover_degree")
    if d < 2:
        raise ParameterMismatchError(f"step {step.id}: cover degree must be >= 2")
    total = str(_param(step, "total"))
    base = str(_param(step, "base"))
    k = _param_int(step, "k")
    total_ref = GroupRef(total, k)
    by_subject = _inputs_by_subject(step)
    fact = by_subject.get(total_ref)
    if fact is None or len(by_subject) != 1:
        raise MissingInputError(
            f"step {step.id}: needs exactly one fact about {total_ref.render()}"
        )
    _require(store, step, fact)
    upstairs = _bound_or_fail(step, fact)
    primes = frozenset(prime_factors(d)) | upstairs
    return [Fact(GroupRef(base, k), Claim.only_primes(primes))]


def _rule_blowup_split(store: FactStore, step: Step) -> list[Fact]:
    # Blow-up along a smooth center of complex codimension c: cohomology
    # splits off shifted copies of the center, so torsion primes of the
    # blow-up are bounded by those of the base and the shifted center.
    blowup = str(_param(step, "blowup"))
    base = str(_param(step, "base"))
    center = str(_param(step, "center"))
    codim = _param_int(step, "codim")
    if codim < 1:
        raise ParameterMismatchError(f"step {step.id}: codim must be positive")
    degrees = _param_degrees(step)
    by_subject = _inputs_by_subject(step)
    used: set[GroupRef] = set()
    outputs = []
    for k in degrees:
        refs = [GroupRef(base, k)]
        refs += [
            GroupRef(center, k - 2 * i) for i in range(1, codim) if k - 2 * i >= 0
        ]
        primes: frozenset[int] = frozenset()
        for ref in refs:
            fact = by_subject.get(ref)
            if fact is None:
                raise MissingInputError(f"step {step.id}: needs a fact about {ref.render()}")
            _require(store, step, fact)
            used.add(ref)
            primes |= _bound_or_fail(step, fact)
        outputs.append(Fact(GroupRef(blowup, k), Claim.only_primes(primes)))
    if used != set(by_subject):
        raise ParameterMismatchError(f"step {step.id}: unused declared inputs")
    return outputs


def _rule_duality_uct(store: FactStore, step: Step) -> list[Fact]:
    # On a closed oriented n-manifold, Poincare duality plus universal
    # coefficients give tors H^(j+1) = tors H_j = tors H^(n-j).
    manifold = str(_param(step, "manifold"))
    n = _param_int(step, "dim")
    j = _param_int(step, "homology_degree")
    if not 0 <= j < n:
        raise ParameterMismatchError(f"step {step.id}: homology degree out of range")
    _check_inputs(step, [])
    return [
        Fact(
            GroupRef(manifold, j + 1),
            Claim.torsion_equals(GroupRef(manifold, n - j)),
        )
    ]


def _rule_spectral_vanishing(store: FactStore, step: Step) -> list[Fact]:
    # Cartan-Leray for a free action: when every H^p(G, H^(k-p)) with
    # p >= 1 vanishes, H^k of the quotient is the invariant edge term,
    # which is torsion free whenever the fixed part is.
    quotient = str(_param(step, "quotient"))
    group = str(_param(step, "group"))
    coefficient = str(_param(step, "coefficient"))
    k = _param_int(step, "k")
    if k < 1:
        raise ParameterMismatchError(f"step {step.id}: total degree must be >= 1")
    required = [
        Fact(GroupRef(f"{group},H^{k - p}({coefficient})", p), Claim.is_zero())
        for p in range(1, k + 1)
    ]
    required.append(
        Fact(GroupRef(f"{group},H^{k}({coefficient})", 0), Claim.torsion_free())
    )
    _check_inputs(step, required)
    for f in required:
        _require(store, step, f)
    return [Fact(GroupRef(quotient, k), Claim.torsion_free())]


def _rule_complement_iso(store: FactStore, step: Step) -> list[Fact]:
    # Removing a finite point set from a closed n-manifold leaves H^k
    # unchanged for k <= n - 2.
    manifold = str(_param(step, "manifold"))
    complement = str(_param(step, "complement"))
    n = _param_int(step, "dim")
    _param_int(step, "removed_points")
    degrees = _param_degrees(step)
    for k in degrees:
        if k > n - 2:
            raise ParameterMismatchError(
                f"step {step.id}: degree {k} exceeds dim - 2 = {n - 2}"
            )
    _check_inputs(step, [])
    return [
        Fact(GroupRef(manifold, k), Claim.torsion_equals(GroupRef(complement, k)))
        for k in degrees
    ]


def _rule_combine_primes(store: FactStore, step: Step) -> list[Fact]:
    # Two torsion bounds on the same group intersect.
    subject = _param_ref(step, "subject")
    first = frozenset(int(p) for p in _param(step, "first"))
    second = frozenset(int(p) for p in _param(step, "second"))
    required = [
        Fact(subject, Claim.only_primes(first)),
        Fact(subject, Claim.only_primes(second)),
    ]
    _check_inputs(step, required)
    for f in required:
        _require(store, step, f)
    return [Fact(subject, Claim.only_primes(first & second))]


_RULES = {
    "thom_iso": _rule_thom_iso,
    "les_torsion_equal": _rule_les_torsion_equal,
    "les_inject": _rule_les_inject,
    "transfer_cover": _rule_transfer_cover,
    "blowup_split": _rule_blowup_split,
    "duality_uct": _rule_duality_uct,
    "spectral_vanishing": _rule_spectral_vanishing,
    "complement_iso": _rule_complement_iso,
    "combine_primes": _rule_combine_primes,
}


def apply_rule(store: FactStore, step: Step) -> FactStore:
    """Replay one rule application against an established fact set.

    Pure: returns a new store with the step's conclusions (and their
    closure) added.  Re-applying an already-applied step is a no-op.
    """
    handler = _RULES.get(step.rule)
    if handler is None:
        raise UnknownRuleError(f"step {step.id}: unknown rule {step.rule!r}")
    outputs = handler(store, step)
    new = store.copy()
    for f in outputs:
        new.add(f, ("step", step.id))
    return new


# --------------------------------------------------------------------------
# checking and reporting


@dataclass(frozen=True)
class AxiomRecord:
    id: str
    ok: bool
    error: str | None
    facts: tuple[str, ...]


@dataclass(frozen=True)
class StepRecord:
    id: str
    rule: str
    ok: bool
    error: str | None
    outputs: tuple[str, ...]


@dataclass(frozen=True)
class GoalRecord:
    fact: str
    established: bool
    chain: tuple[str, ...]


@dataclass(frozen=True)
class Report:
    passed: bool
    axioms: tuple[AxiomRecord, ...]
    steps: tuple[StepRecord, ...]
    goals: tuple[GoalRecord, ...]
    first_failure: str | None
    fact_count: int
    grounded: bool

    def to_json_dict(self) -> dict:
        return {
            "pass": self.passed,
            "first_failure": self.first_failure,
            "fact_count": self.fact_count,
            "grounded": self.grounded,
            "axioms": [
                {"id": a.id, "ok": a.ok, "error": a.error, "facts": list(a.facts)}
                for a in self.axioms
            ],
            "steps": [
                {
                    "id": s.id,
                    "rule": s.rule,
                    "ok": s.ok,
                    "error": s.error,
                    "outputs": list(s.outputs),
                }
                for s in self.steps
            ],
            "goals": [
                {"fact": g.fact, "established": g.established, "chain": list(g.chain)}
                for g in self.goals
            ],
        }

    def to_text(self) -> str:
        lines = []
        for a in self.axioms:
            status = "ok  " if a.ok else "FAIL"
            lines.append(f"axiom {status} {a.id}" + ("" if a.ok else f"  [{a.error}]"))
        for s in self.steps:
            status = "ok  " if s.ok else "FAIL"
            detail = "; ".join(s.outputs) if s.ok else s.error
            lines.append(f"step  {status} {s.id} {s.rule}: {detail}")
        for g in self.goals:
            status = "established" if g.established else "NOT ESTABLISHED"
            lines.append(f"goal  {g.fact}: {status}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"result: {verdict} "
            f"({sum(1 for g in self.goals if g.established)}/{len(self.goals)} goals, "
            f"{self.fact_count} facts)"
        )
        if self.first_failure:
            lines.append(f"first failure: {self.first_failure}")
        return "\n".join(lines)


def _goal_chain(store: FactStore, script: Script, fact: Fact) -> tuple[tuple[str, ...], bool]:
    steps_by_id = {s.id: s for s in script.steps}
    lines: list[str] = []
    seen: set[Fact] = set()
    grounded = True

    def visit(f: Fact) -> None:
        nonlocal grounded
        if f in seen:
            return
        seen.add(f)
        if f not in store:
            grounded = False
            lines.append(f"{f.render()}  <=  UNGROUNDED")
            return
        prov = store.provenance(f)
        if prov[0] == "axiom":
            lines.append(f"{f.render()}  <=  axiom {prov[1]}")
            premises: tuple[Fact, ...] = ()
        elif prov[0] == "step":
            lines.append(f"{f.render()}  <=  step {prov[1]}")
            premises = steps_by_id[prov[1]].inputs
        else:
            lines.append(f"{f.render()}  <=  closure")
            premises = prov[1]
        for p in premises:
            visit(p)

    visit(fact)
    return tuple(lines), grounded


def check_script(script: Script) -> Report:
    """Replay a script from scratch and report every step and goal."""
    store = FactStore(script.space_names())
    first_failure: str | None = None
    axiom_records = []
    for ax in script.axioms:
        try:
            added: list[Fact] = []
            for f in ax.facts:
                added.extend(store.add(f, ("axiom", ax.id)))
            axiom_records.append(
                AxiomRecord(ax.id, True, None, tuple(x.render() for x in added))
            )
        except LedgerError as exc:
            message = f"{type(exc).__name__}: {exc}"
            axiom_records.append(AxiomRecord(ax.id, False, message, ()))
            first_failure = first_failure or f"axiom {ax.id}: {message}"
    step_records = []
    for st in script.steps:
        before = len(store)
        try:
            store = apply_rule(store, st)
            new_facts = store.facts_list()[before:]
            step_records.append(
                StepRecord(st.id, st.rule, True, None, tuple(f.render() for f in new_facts))
            )
        except Exception as exc:
            # Not only LedgerError: a rule that trips over a malformed
            # parameter (say a number where a list belongs) fails its step
            # and the replay goes on.
            message = f"{type(exc).__name__}: {exc}"
            step_records.append(StepRecord(st.id, st.rule, False, message, ()))
            first_failure = first_failure or f"step {st.id}: {message}"
    goal_records = []
    grounded = True
    for goal in script.goals:
        established = goal in store
        if established:
            chain, ok = _goal_chain(store, script, goal)
            grounded = grounded and ok
        else:
            chain = ()
            first_failure = first_failure or f"goal not established: {goal.render()}"
        goal_records.append(GoalRecord(goal.render(), established, chain))
    passed = (
        all(a.ok for a in axiom_records)
        and all(s.ok for s in step_records)
        and all(g.established for g in goal_records)
        and grounded
    )
    return Report(
        passed=passed,
        axioms=tuple(axiom_records),
        steps=tuple(step_records),
        goals=tuple(goal_records),
        first_failure=first_failure,
        fact_count=len(store),
        grounded=grounded,
    )


# --------------------------------------------------------------------------
# computation-backed axioms


def coefficient_space(q: int, group: str = "A3", coefficient: str = "V") -> str:
    """The declared name of the coefficient system H^q as a module."""
    return f"{group},H^{q}({coefficient})"


def leaf_facts_from_computation(ctx: KummerContext) -> tuple[Axiom, ...]:
    """The computed vanishing and fixed-part facts, as taggable axioms.

    Refuses to emit anything if the certificate contains a non-zero entry;
    a tampered or inconsistent context must never turn into axioms.
    """
    for entry in ctx.vanishing:
        if not entry.group.is_zero:
            raise CertificateFailure(
                f"refusing to emit facts: H^{entry.p}(A3, H^{entry.q}) = {entry.group}"
            )
    tag = ctx.content_tag()
    axioms: list[Axiom] = []
    for entry in ctx.vanishing:
        ref = GroupRef(coefficient_space(entry.q), entry.p)
        axioms.append(
            Axiom(
                id=f"cv_p{entry.p}_q{entry.q}",
                cite=(
                    f"computed: H^{entry.p}(A3, H^{entry.q}(V)) = 0 by Smith normal form "
                    f"on the degree-{entry.q} exterior-power lattice; H^q(V) is identified "
                    f"with H^q(A x A) for q <= 6 (complement of the 81 points of A[3] in "
                    f"an 8-manifold); model tag {tag}"
                ),
                facts=(Fact(ref, Claim.is_zero()),),
                computation=True,
            )
        )
    for q in (3, 5):
        rank = ctx.fixed_ranks[q]
        ref = GroupRef(coefficient_space(q), 0)
        axioms.append(
            Axiom(
                id=f"cfix_q{q}",
                cite=(
                    f"computed: the fixed sublattice of the degree-{q} exterior power is "
                    f"free of rank {rank} (saturated kernel of s - 1); model tag {tag}"
                ),
                facts=(Fact(ref, Claim.iso_to(FinAbGroup.free(rank))),),
                computation=True,
            )
        )
    return tuple(axioms)
