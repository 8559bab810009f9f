"""A small replayable certificate checker for torsion bookkeeping.

A *script* declares a table of named spaces, a list of axioms (facts about
named cohomology groups, each carrying a citation), an ordered list of
typed inference steps, and a list of goal facts.  Checking replays the
steps in order: each step names a rule, lists the exact facts it consumes,
and contributes new facts.  Nothing is ever guessed: a step whose inputs
are not already established fails, and the report records the failure
instead of aborting.  An axiom, like a step, adds all of its facts (with
their closure) or none; closure and goal chains have no depth limit.

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

import itertools

from .kummer import CertificateFailure, KummerContext
from .linalg import FinAbGroup, Value, _set, prime_factors

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

# Bounds on the checker's work: it factors an iso_to invariant factor or a
# cover degree by trial division, and it lists each invariant factor it builds.
FACTOR_BOUND = 2**24
MAX_FACTORS = 10**4


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


class GroupRef(Value):
    """A named cohomology group: H^degree of a declared space."""

    __slots__ = _fields = ("space", "degree")

    def __init__(self, space: str, degree: int):
        _set(self, "space", space)
        _set(self, "degree", degree)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.space == other.space and self.degree == other.degree

    def __hash__(self) -> int:
        return hash((self.space, self.degree))

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


class Claim(Value):
    __slots__ = _fields = ("kind", "primes", "group", "other")

    def __init__(self, kind: str, primes: frozenset[int] | None = None,
                 group: FinAbGroup | None = None, other: GroupRef | None = None):
        _set(self, "kind", kind)
        _set(self, "primes", primes)
        _set(self, "group", group)
        _set(self, "other", other)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.kind == other.kind
            and self.primes == other.primes
            and (self.group is other.group or self.group == other.group)
            and self.other == other.other
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.primes, self.group, self.other))

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
            if any(x >= FACTOR_BOUND for x in torsion):
                raise ScriptFormatError(f"invariant factors must be below {FACTOR_BOUND}")
            return cls.iso_to(FinAbGroup(rank, torsion))
        if kind in ("torsion_equals", "torsion_injects_into"):
            return cls(kind, other=GroupRef.from_json_dict(d["other"]))
        return cls(kind)


class Fact(Value):
    __slots__ = _fields = ("subject", "claim")

    def __init__(self, subject: GroupRef, claim: Claim):
        _set(self, "subject", subject)
        _set(self, "claim", claim)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # Identity first, as tuple comparison does: facts often share their parts.
        return (self.subject is other.subject or self.subject == other.subject) and (
            self.claim is other.claim or self.claim == other.claim
        )

    def __hash__(self) -> int:
        return hash((self.subject, self.claim))

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
        # Tuples, not lists: a copy shares them instead of copying each one.
        self._by_subject: dict[GroupRef, tuple[Fact, ...]] = {}
        self._relations: dict[GroupRef, tuple[Fact, ...]] = {}

    def copy(self) -> "FactStore":
        new = FactStore(self._spaces)
        new._facts = dict(self._facts)
        new._by_subject = dict(self._by_subject)
        new._relations = dict(self._relations)
        return new

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._facts

    def __len__(self) -> int:
        return len(self._facts)

    def facts_since(self, n: int) -> list[Fact]:
        """The facts added after the first ``n``, in insertion order, read from the end."""
        return list(itertools.islice(reversed(self._facts), len(self._facts) - n))[::-1]

    def rollback(self, n: int) -> None:
        """Remove the facts added after the first ``n``, newest first, and their index entries."""
        while len(self._facts) > n:
            fact, _ = self._facts.popitem()
            refs = [(self._by_subject, fact.subject)]
            if fact.claim.kind in ("torsion_equals", "torsion_injects_into"):
                refs += [(self._relations, fact.subject), (self._relations, fact.claim.other)]
            for index, ref in refs:
                # The newest fact is last in every index entry it extended.
                index[ref] = index[ref][:-1]
                if not index[ref]:
                    del index[ref]

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
        """Insert a fact (idempotent) and its closure, depth first; return what was new."""
        added: list[Fact] = []
        stack = [(fact, source)]
        while stack:
            fact, source = stack.pop()
            if fact in self._facts:
                continue
            self._validate_ref(fact.subject)
            if fact.claim.other is not None:
                self._validate_ref(fact.claim.other)
            self._check_consistent(fact)
            self._facts[fact] = source
            self._by_subject[fact.subject] = self._by_subject.get(fact.subject, ()) + (fact,)
            if fact.claim.kind in ("torsion_equals", "torsion_injects_into"):
                for ref in (fact.subject, fact.claim.other):
                    self._relations[ref] = self._relations.get(ref, ()) + (fact,)
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


class SpaceDecl(Value):
    __slots__ = _fields = ("name", "pair")

    def __init__(self, name: str, pair: tuple[str, str] | None = None):
        self._init(name, pair)


class Axiom(Value):
    __slots__ = _fields = ("id", "cite", "facts", "computation")

    def __init__(self, id: str, cite: str, facts: tuple[Fact, ...], computation: bool = False):
        self._init(id, cite, facts, computation)


class Step(Value):
    """One rule application; steps compare by identity."""

    __slots__ = _fields = ("id", "rule", "cite", "params", "inputs")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, id: str, rule: str, cite: str, params: dict, inputs: tuple[Fact, ...]):
        self._init(id, rule, cite, params, inputs)


class Script(Value):
    """A parsed proof script; scripts compare by identity."""

    __slots__ = _fields = ("format", "spaces", "axioms", "steps", "goals")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, format: str, spaces: tuple[SpaceDecl, ...], axioms: tuple[Axiom, ...],
                 steps: tuple[Step, ...], goals: tuple[Fact, ...]):
        self._init(format, spaces, axioms, steps, goals)

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
        computation = a.get("computation", False)
        if type(computation) is not bool:
            raise ScriptFormatError(f"axiom {aid}: computation must be a boolean, got {computation!r}")
        axioms.append(
            Axiom(
                id=aid,
                cite=_json_str(a.get("cite", ""), "axiom cite"),
                facts=tuple(fact(fd) for fd in a["facts"]),
                computation=computation,
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
                cite=_json_str(s.get("cite", ""), "step cite"),
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
    return script.replace(axioms=tuple(a for a in script.axioms if a.id != axiom_id))


def without_step(script: Script, step_id: str) -> Script:
    if all(s.id != step_id for s in script.steps):
        raise KeyError(step_id)
    return script.replace(steps=tuple(s for s in script.steps if s.id != step_id))


# --------------------------------------------------------------------------
# rules
#
# A rule reads only its step and returns the facts it consumes with its
# conclusions; apply_rule alone checks the consumed facts against the
# declared inputs and the established fact set.


def _name(value):
    if type(value) is str:
        return value


def _integer(value):
    # JSON integers only: "3", 3.0 and true would pass an int() coercion.
    if type(value) is int:
        return value


def _integers(value):
    if type(value) is list and all(type(k) is int for k in value):
        return value


def _ref(value):
    if type(value) is dict:
        space, degree = value.get("space"), value.get("degree")
        if type(space) is str and type(degree) is int:
            return GroupRef(space, degree)


_READERS = {
    _name: "a string",
    _integer: "an integer",
    _integers: "a list of integers",
    _ref: "a group ref",
}


def _read(step: Step, **readers) -> list:
    """The step's parameters named by ``readers``, read in that order."""
    values = []
    for key, reader in readers.items():
        if key not in step.params:
            raise ParameterMismatchError(f"step {step.id}: missing parameter {key!r}")
        value = reader(step.params[key])
        if value is None:
            raise ParameterMismatchError(
                f"step {step.id}: parameter {key!r} must be {_READERS[reader]}"
            )
        values.append(value)
    return values


def _about(step: Step, ref: GroupRef) -> tuple[Fact, frozenset[int]]:
    """The first declared input about ``ref`` and its bound on the torsion primes.

    apply_rule rejects any other declared input about ``ref``.
    """
    for fact in step.inputs:
        if fact.subject == ref:
            bound = _torsion_bound(fact.claim)
            if bound is None:
                raise ParameterMismatchError(
                    f"step {step.id}: input {fact.render()} carries no torsion information"
                )
            return fact, bound
    raise MissingInputError(f"step {step.id}: needs a fact about {ref.render()}")


def _rule_thom_iso(step: Step) -> tuple[list[Fact], list[Fact]]:
    # H^k(pair) = (copies) disjoint summands of H^(k - codim)(center).
    pair, center, copies, codim, degrees = _read(
        step, pair=_name, center=_name, copies=_integer, codim=_integer, degrees=_integers
    )
    if copies < 1 or codim < 1:
        raise ParameterMismatchError(f"step {step.id}: copies and codim must be positive")
    consumed = {}  # a fact read for two degrees is consumed once
    outputs = []
    for k in degrees:
        claim = Claim.is_zero()
        if k >= codim:
            fact, _ = _about(step, GroupRef(center, k - codim))
            consumed[fact] = None
            claim = fact.claim
            if claim.kind == "iso_to":
                if len(claim.group.torsion) * copies > MAX_FACTORS:
                    raise ParameterMismatchError(f"step {step.id}: over {MAX_FACTORS} factors")
                claim = Claim.iso_to(claim.group.multiple(copies))
        outputs.append(Fact(GroupRef(pair, k), claim))
    return list(consumed), outputs


def _rule_les_torsion_equal(step: Step) -> tuple[list[Fact], list[Fact]]:
    # Exact 0 -> left -> mid -> right with the leading term zero and the
    # right term torsion free: left and mid have the same torsion.
    zero, left, mid, right = _read(step, zero=_ref, left=_ref, mid=_ref, right=_ref)
    return (
        [Fact(zero, Claim.is_zero()), Fact(right, Claim.torsion_free())],
        [Fact(left, Claim.torsion_equals(mid))],
    )


def _rule_les_inject(step: Step) -> tuple[list[Fact], list[Fact]]:
    # Exact zero -> source -> target: torsion of source embeds in target's.
    zero, source, target = _read(step, zero=_ref, source=_ref, target=_ref)
    return [Fact(zero, Claim.is_zero())], [Fact(source, Claim.torsion_injects_into(target))]


def _rule_transfer_cover(step: Step) -> tuple[list[Fact], list[Fact]]:
    # Degree-d covering total -> base: restriction followed by transfer is
    # multiplication by d, so base torsion away from d injects into the
    # total space's torsion.
    d, total, base, k = _read(step, cover_degree=_integer, total=_name, base=_name, k=_integer)
    if d < 2:
        raise ParameterMismatchError(f"step {step.id}: cover degree must be >= 2")
    if d >= FACTOR_BOUND:
        raise ParameterMismatchError(f"step {step.id}: cover degree must be below {FACTOR_BOUND}")
    fact, upstairs = _about(step, GroupRef(total, k))
    primes = frozenset(prime_factors(d)) | upstairs
    return [fact], [Fact(GroupRef(base, k), Claim.only_primes(primes))]


def _rule_blowup_split(step: Step) -> tuple[list[Fact], list[Fact]]:
    # Blow-up along a smooth center of complex codimension c: cohomology
    # splits off shifted copies of the center, so torsion primes of the
    # blow-up are bounded by those of the base and the shifted center.
    blowup, base, center, codim, degrees = _read(
        step, blowup=_name, base=_name, center=_name, codim=_integer, degrees=_integers
    )
    if codim < 1:
        raise ParameterMismatchError(f"step {step.id}: codim must be positive")
    consumed = {}  # a fact read for two degrees is consumed once
    outputs = []
    for k in degrees:
        primes: frozenset[int] = frozenset()
        # H^k(base), then H^(k - 2i)(center): lazily, as a missing input ends the walk.
        for i in range(max(1, min(codim, k // 2 + 1))):
            fact, bound = _about(step, GroupRef(center, k - 2 * i) if i else GroupRef(base, k))
            consumed[fact] = None
            primes |= bound
        outputs.append(Fact(GroupRef(blowup, k), Claim.only_primes(primes)))
    return list(consumed), outputs


def _rule_duality_uct(step: Step) -> tuple[list[Fact], list[Fact]]:
    # On a closed oriented n-manifold, Poincare duality plus universal
    # coefficients give tors H^(j+1) = tors H_j = tors H^(n-j).
    manifold, n, j = _read(step, manifold=_name, dim=_integer, homology_degree=_integer)
    if not 0 <= j < n:
        raise ParameterMismatchError(f"step {step.id}: homology degree out of range")
    return [], [Fact(GroupRef(manifold, j + 1), Claim.torsion_equals(GroupRef(manifold, n - j)))]


def _rule_spectral_vanishing(step: Step) -> tuple[list[Fact], list[Fact]]:
    # Cartan-Leray for a free action: when every H^p(G, H^(k-p)) with
    # p >= 1 vanishes, H^k of the quotient is the invariant edge term,
    # which is torsion free whenever the fixed part is.
    quotient, group, coefficient, k = _read(
        step, quotient=_name, group=_name, coefficient=_name, k=_integer
    )
    if k < 1:
        raise ParameterMismatchError(f"step {step.id}: total degree must be >= 1")
    if k > len(step.inputs):  # so that it builds at most one fact more than declared
        raise ParameterMismatchError(f"step {step.id}: inputs must be {k + 1} facts")
    consumed = [
        Fact(GroupRef(coefficient_space(k - p, group, coefficient), p), Claim.is_zero())
        for p in range(1, k + 1)
    ]
    consumed.append(
        Fact(GroupRef(coefficient_space(k, group, coefficient), 0), Claim.torsion_free())
    )
    return consumed, [Fact(GroupRef(quotient, k), Claim.torsion_free())]


def _rule_complement_iso(step: Step) -> tuple[list[Fact], list[Fact]]:
    # Removing a finite point set from a closed n-manifold leaves H^k
    # unchanged for k <= n - 2.
    manifold, complement, n, _, degrees = _read(
        step, manifold=_name, complement=_name, dim=_integer, removed_points=_integer,
        degrees=_integers,
    )
    for k in degrees:
        if k > n - 2:
            raise ParameterMismatchError(
                f"step {step.id}: degree {k} exceeds dim - 2 = {n - 2}"
            )
    return [], [
        Fact(GroupRef(manifold, k), Claim.torsion_equals(GroupRef(complement, k)))
        for k in degrees
    ]


def _rule_combine_primes(step: Step) -> tuple[list[Fact], list[Fact]]:
    # Two torsion bounds on the same group intersect.
    subject, first, second = _read(step, subject=_ref, first=_integers, second=_integers)
    return (
        [Fact(subject, Claim.only_primes(first)), Fact(subject, Claim.only_primes(second))],
        [Fact(subject, Claim.only_primes(set(first) & set(second)))],
    )


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

    The declared inputs must be exactly the facts the rule consumes, each
    already established.  Pure: returns a new store with the step's
    conclusions (and their closure) added.  Re-applying an already-applied
    step is a no-op.
    """
    new = store.copy()
    _commit(new, _step_outputs(store, step), ("step", step.id))
    return new


def _step_outputs(store: FactStore, step: Step) -> list[Fact]:
    """The facts ``step`` concludes, once its declared inputs are checked against ``store``."""
    handler = _RULES.get(step.rule)
    if handler is None:
        raise UnknownRuleError(f"step {step.id}: unknown rule {step.rule!r}")
    consumed, outputs = handler(step)
    if set(step.inputs) != set(consumed) or len(step.inputs) != len(consumed):
        want = ", ".join(f.render() for f in consumed) or "(none)"
        raise ParameterMismatchError(f"step {step.id}: inputs must be exactly: {want}")
    for fact in consumed:
        if fact not in store:
            raise MissingInputError(f"step {step.id}: input not established: {fact.render()}")
    return outputs


def _commit(store: FactStore, facts, source: tuple) -> tuple[str, ...]:
    """Add ``facts`` and their closure to ``store``, all or none; render what was added.

    On any error, rendering included, the store is rolled back to where it was.
    """
    mark = len(store)
    try:
        for fact in facts:
            store.add(fact, source)
        return tuple(f.render() for f in store.facts_since(mark))
    except BaseException:
        store.rollback(mark)
        raise


# --------------------------------------------------------------------------
# checking and reporting


class AxiomRecord(Value):
    __slots__ = _fields = ("id", "ok", "error", "facts")

    def __init__(self, id: str, ok: bool, error: str | None, facts: tuple[str, ...]):
        self._init(id, ok, error, facts)


class StepRecord(Value):
    __slots__ = _fields = ("id", "rule", "ok", "error", "outputs")

    def __init__(self, id: str, rule: str, ok: bool, error: str | None, outputs: tuple[str, ...]):
        self._init(id, rule, ok, error, outputs)


class GoalRecord(Value):
    __slots__ = _fields = ("fact", "established", "chain")

    def __init__(self, fact: str, established: bool, chain: tuple[str, ...]):
        self._init(fact, established, chain)


class Report(Value):
    __slots__ = _fields = (
        "passed", "axioms", "steps", "goals", "first_failure", "fact_count", "grounded")

    def __init__(self, passed: bool, axioms: tuple[AxiomRecord, ...],
                 steps: tuple[StepRecord, ...], goals: tuple[GoalRecord, ...],
                 first_failure: str | None, fact_count: int, grounded: bool):
        self._init(passed, axioms, steps, goals, first_failure, fact_count, grounded)

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


def _goal_chain(store: FactStore, inputs: dict, fact: Fact) -> tuple[tuple[str, ...], bool]:
    lines: list[str] = []
    seen: set[Fact] = set()
    grounded = True
    stack = [fact]
    while stack:
        f = stack.pop()
        if f in seen:
            continue
        seen.add(f)
        if f not in store:
            grounded = False
            lines.append(f"{f.render()}  <=  UNGROUNDED")
            continue
        kind, origin = store.provenance(f)
        if kind == "closure":
            lines.append(f"{f.render()}  <=  closure")
            stack.extend(reversed(origin))
        else:
            lines.append(f"{f.render()}  <=  {kind} {origin}")
            if kind == "step":
                stack.extend(reversed(inputs[origin]))
    return tuple(lines), grounded


def check_script(script: Script) -> Report:
    """Replay a script from scratch and report every axiom, step and goal."""
    store = FactStore(script.space_names())
    first_failure: str | None = None
    axiom_records = []
    for ax in script.axioms:
        try:
            new = _commit(store, ax.facts, ("axiom", ax.id))
            axiom_records.append(AxiomRecord(ax.id, True, None, new))
        except LedgerError as exc:
            message = f"{type(exc).__name__}: {exc}"
            axiom_records.append(AxiomRecord(ax.id, False, message, ()))
            first_failure = first_failure or f"axiom {ax.id}: {message}"
    step_records = []
    for st in script.steps:
        try:
            new = _commit(store, _step_outputs(store, st), ("step", st.id))
            step_records.append(StepRecord(st.id, st.rule, True, None, new))
        except Exception as exc:
            # Not only LedgerError: a rule that trips over a malformed
            # parameter (say a number where a list belongs) fails its step
            # and the replay goes on.
            message = f"{type(exc).__name__}: {exc}"
            step_records.append(StepRecord(st.id, st.rule, False, message, ()))
            first_failure = first_failure or f"step {st.id}: {message}"
    inputs = {st.id: st.inputs for st in script.steps}
    goal_records = []
    grounded = True
    for goal in script.goals:
        established = goal in store
        if established:
            chain, ok = _goal_chain(store, inputs, goal)
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
