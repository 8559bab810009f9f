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
backwards).  Whatever the insertion order, it rejects two different exact
groups on one group, and an exact group with a torsion prime outside a
bound on that group.  It compares primes, not groups, so it accepts some
unsatisfiable sets: ``iso(Z/2)`` and ``iso(Z/4)`` under ``torsion_equals``.
Two ``only_primes`` bounds on the same group do *not* merge automatically;
intersecting them is the explicit ``combine_primes`` rule.
Each ``Claim`` works out its place in the lattice once, when it is first
built; ``FactStore.add`` reads it and adds the transport along relations.

Script files are JSON with sections ``spaces``, ``axioms``, ``steps`` and
``goals``; ``read_script`` reads their text.  Each kind of JSON object in a
script (the script itself, a space, an axiom, a step, a fact and each kind
of claim) has one table of its keys, each with its reader and its default.
One reader, ``_keys``, reads every such object through its table, and a
step's parameters through the table its rule gives when the step is
replayed; ``script_to_json_dict`` writes through the same tables, with one
getter per table for an object's values.  A ``ScriptFormatError`` is any
text that is not a script: not UTF-8 JSON, an integer literal too long for
the interpreter to convert, ``NaN`` or ``Infinity``, a duplicate key, a key
its table does not list, a missing key or a value of the wrong type (a
degree that is not a JSON integer, say), or a group of a space not declared
or of a negative degree.  Reports have JSON and plain-text forms and are
deterministic: checking the same script twice yields byte-identical output.

``GroupRef``, ``Claim`` and ``Fact`` are hash-consed (Filliatre and Conchon,
"Type-safe modular hash-consing", ML Workshop 2006): equal values are one
object, so they compare and hash by identity and every set and dict of
facts runs at C speed.  The table behind this lives for the process; it
holds 248 entries (57 groups, 22 claims, 169 facts) after ``full-cert``,
and the same 248 after the shipped script and its 44 deletion mutants.
"""

from __future__ import annotations

import json
import operator
import reprlib
from collections import Counter
from typing import TYPE_CHECKING

from .linalg import FinAbGroup, Value, _set, prime_factors

if TYPE_CHECKING:  # an annotation only: the checker itself imports no lattice code
    from .kummer import KummerModel

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
    "Step",
    "UnknownRuleError",
    "apply_rule",
    "check_script",
    "leaf_facts_from_computation",
    "parse_script",
    "read_script",
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

# The one instance of each GroupRef, Claim and Fact, keyed by class and every field.
_INTERNED: dict[tuple, Value] = {}


def _interned(cls, *values):
    """A new ``cls`` with fields ``values`` (in ``_fields`` order), entered in the table."""
    obj = object.__new__(cls)
    for name, value in zip(cls._fields, values, strict=True):
        _set(obj, name, value)
    return _INTERNED.setdefault((cls, *values), obj)


class GroupRef(Value):
    """A named cohomology group: H^degree of a declared space."""

    __slots__ = _fields = ("space", "degree")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, space: str, degree: int):
        return _INTERNED.get((cls, space, degree)) or _interned(cls, space, degree)

    def render(self) -> str:
        if self.space.startswith("("):
            return f"H^{self.degree}{self.space}"
        return f"H^{self.degree}({self.space})"

    def to_json_dict(self) -> dict:
        return {"space": self.space, "degree": self.degree}


class Claim(Value):
    """A claim about one group, with its place in the lattice of implications.

    Set once, outside the fields: ``torsion_level``, true for the bounds that
    relations transport; ``exact``, the group an ``is_zero`` or ``iso_to``
    names; ``bound``, a set holding the torsion primes (an exact group's own
    primes), None for a relation; ``implies``, the claims about the same
    group that it implies directly.
    """

    _fields = ("kind", "primes", "group", "other")
    __slots__ = (*_fields, "torsion_level", "exact", "bound", "implies")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, kind: str, primes: frozenset[int] | None = None,
                group: FinAbGroup | None = None, other: GroupRef | None = None):
        claim = _INTERNED.get((cls, kind, primes, group, other))
        if claim is None:
            exact = FinAbGroup.zero() if kind == "is_zero" else group if kind == "iso_to" else None
            bound = {"torsion_free": frozenset(), "only_primes": primes}.get(kind)
            if exact is not None:
                bound = exact.torsion_primes()
            claim = _interned(cls, kind, primes, group, other)
            _set(claim, "torsion_level", kind in ("torsion_free", "only_primes"))
            _set(claim, "exact", exact)
            _set(claim, "bound", bound)
            # Once the claim is in the table, as torsion-free and only-primes({}) imply each other.
            implies = []
            if kind == "iso_to":
                implies.append(Claim.only_primes(bound))
                if group.is_torsion_free:
                    implies.append(Claim.torsion_free())
                if group.is_zero:
                    implies.append(Claim.is_zero())
            elif kind == "torsion_free":
                implies.append(Claim.only_primes(()))
            elif kind == "is_zero" or kind == "only_primes" and not primes:
                implies.append(Claim.torsion_free())
            _set(claim, "implies", tuple(implies))
        return claim

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

    # An iso_to claim's group, as its JSON form gives it.
    rank = property(lambda self: self.group.rank)
    torsion = property(lambda self: self.group.torsion)


class Fact(Value):
    _fields = ("subject", "claim")
    __slots__ = (*_fields, "_text")  # _text: the rendering, once asked for
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, subject: GroupRef, claim: Claim):
        return _INTERNED.get((cls, subject, claim)) or _interned(cls, subject, claim)

    def render(self) -> str:
        text = getattr(self, "_text", None)
        if text is None:
            text = f"{self.subject.render()} : {self.claim.render()}"
            _set(self, "_text", text)
        return text


# --------------------------------------------------------------------------
# the fact store


def _check_refs(spaces: dict, error, *refs: GroupRef | None) -> None:
    """Raise ``error`` unless each of ``refs`` but None names a declared space in a degree >= 0."""
    for ref in filter(None, refs):
        if ref.space not in spaces:
            raise error(f"space {ref.space!r} is not declared")
        if ref.degree < 0:
            raise error(f"negative degree in {ref.render()}")


class FactStore:
    """Insertion-ordered fact set with closure and contradiction detection."""

    def __init__(self, spaces: dict[str, tuple[str, str] | None]):
        self.spaces = spaces  # the declared spaces: each name, with its members if a pair
        self._facts: dict[Fact, tuple] = {}
        # The facts about each group, with the relations naming it as ``other``,
        # in insertion order.  Each list only grows, and shrinks on rollback.
        self._about: dict[GroupRef, list[Fact]] = {}

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._facts

    def __len__(self) -> int:
        return len(self._facts)

    def rollback(self, n: int) -> None:
        """Remove the facts added after the first ``n``, newest first, and their index entries."""
        while len(self._facts) > n:
            fact, _ = self._facts.popitem()
            # The newest fact is last in every index entry it extended.
            for ref in (fact.subject, fact.claim.other):
                if ref is not None:
                    about = self._about[ref]
                    about.pop()
                    if not about:
                        del self._about[ref]

    def provenance(self, fact: Fact) -> tuple:
        return self._facts[fact]

    def _check_consistent(self, fact: Fact) -> None:
        claim = fact.claim
        exact, bound = claim.exact, claim.bound
        if exact is None and not claim.torsion_level:
            return  # a relation contradicts nothing
        for old in self._about.get(fact.subject, ()):
            old_exact = old.claim.exact
            if old_exact is not None and exact is not None:
                if old_exact != exact:
                    raise InconsistentFactError(
                        f"{fact.subject.render()} cannot be both {old_exact} and {exact}"
                    )
            # The primes of an exact group lie in every bound on the same group.
            elif (old_exact is not None and not old.claim.bound <= bound) or (
                exact is not None and old.claim.torsion_level and not bound <= old.claim.bound
            ):
                raise InconsistentFactError(
                    f"{fact.render()} contradicts established {old.render()}"
                )

    def add(self, fact: Fact, source: tuple) -> list[Fact]:
        """Insert a fact (idempotent) and its closure, depth first; return what was new."""
        if fact in self._facts:
            return []
        # Only this fact's groups need checking: closure facts name the groups of their parents.
        _check_refs(self.spaces, ParameterMismatchError, fact.subject, fact.claim.other)
        facts, about = self._facts, self._about
        added: list[Fact] = []
        stack = [(fact, source)]
        while stack:
            fact, source = stack.pop()
            if fact in facts:
                continue
            self._check_consistent(fact)
            facts[fact] = source
            subject, claim = fact.subject, fact.claim
            for ref in (subject, claim.other):  # other: a relation's second group
                if ref is not None:
                    about.setdefault(ref, []).append(fact)
            added.append(fact)
            # The claim's implications, then torsion bounds carried along torsion relations.
            out = [(Fact(subject, implied), ("closure", (fact,))) for implied in claim.implies]
            if claim.torsion_level:
                for rel in about[subject]:
                    rclaim = rel.claim
                    if rclaim.kind == "torsion_equals":
                        peer = rclaim.other if rel.subject is subject else rel.subject
                        out.append((Fact(peer, claim), ("closure", (fact, rel))))
                    elif rclaim.kind == "torsion_injects_into" and rclaim.other is subject:
                        out.append((Fact(rel.subject, claim), ("closure", (fact, rel))))
            elif claim.kind == "torsion_equals":
                for side, peer in ((subject, claim.other), (claim.other, subject)):
                    for old in about[side]:
                        if old.claim.torsion_level:
                            out.append((Fact(peer, old.claim), ("closure", (old, fact))))
            elif claim.kind == "torsion_injects_into":
                for old in about[claim.other]:
                    if old.claim.torsion_level:
                        out.append((Fact(subject, old.claim), ("closure", (old, fact))))
            stack.extend(reversed(out))  # so that they pop in the order listed
        return added


# --------------------------------------------------------------------------
# script structure


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
    """A parsed proof script; ``spaces`` maps each pair to its members, a plain space to None."""

    __slots__ = _fields = ("format", "spaces", "axioms", "steps", "goals")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, format: str, spaces: dict[str, tuple[str, str] | None],
                 axioms: tuple[Axiom, ...], steps: tuple[Step, ...], goals: tuple[Fact, ...]):
        self._init(format, spaces, axioms, steps, goals)


# --------------------------------------------------------------------------
# reading and writing a script
#
# A table maps each key an object may carry to its reader and its default
# (``...`` for a key it must carry).  A reader is an exact JSON type ("3", 3.0
# and true would pass an int() coercion) or returns what its value stands for,
# None if the value is malformed.


def _integers(value):
    if type(value) is list and all(type(k) is int for k in value):
        return value


def _ref(value):
    if type(value) is dict and len(value) == 2:  # and no other key
        space, degree = value.get("space"), value.get("degree")
        if type(space) is str and type(degree) is int:
            return GroupRef(space, degree)


_READERS = {str: "a string", int: "an integer", _integers: "a list of integers",
            _ref: "a group ref", bool: "a boolean", list: "a list", dict: "a JSON object"}


def _keys(obj, what: str, spec: dict, error=ScriptFormatError, noun: str = "key") -> list:
    """The values of the JSON object ``obj`` under the keys of ``spec``, in its order.

    ``obj`` may carry no other key, and a key it leaves out takes its default;
    anything else raises ``error``, naming ``what`` and the ``noun`` for a key.
    """
    if type(obj) is not dict:
        raise error(f"{what} must be a JSON object, got {reprlib.repr(obj)}")
    for key in obj:
        if key not in spec:
            raise error(f"{what}: unknown {noun} {key!r}")
    values = []
    for key, (reader, default) in spec.items():
        if key not in obj:
            if default is ...:
                raise error(f"{what}: missing {noun} {key!r}")
            values.append(default)
            continue
        value = obj[key]
        if type(value) is not reader:
            value = None if type(reader) is type else reader(value)
            if value is None:
                raise error(f"{what}: {noun} {key!r} must be {_READERS[reader]}")
        values.append(value)
    return values


def _iso_to(rank: int, torsion: list) -> Claim:
    if any(x >= FACTOR_BOUND for x in torsion):
        raise ScriptFormatError(f"iso_to claim: invariant factors must be below {FACTOR_BOUND}")
    try:
        return Claim.iso_to(FinAbGroup(rank, torsion))
    except ValueError as exc:  # a negative rank, or no chain of divisors
        raise ScriptFormatError(f"iso_to claim: {exc}") from None


_SCRIPT = {"format": (str, ...), "spaces": (list, []), "axioms": (list, []),
           "steps": (list, []), "goals": (list, [])}
_SPACE = {"name": (str, ...), "pair": (list, None)}
_AXIOM = {"id": (str, ...), "cite": (str, ""), "facts": (list, ...), "computation": (bool, False)}
_STEP = {"id": (str, ...), "rule": (str, ...), "cite": (str, ""), "params": (dict, {}),
         "inputs": (list, [])}
_FACT = {"subject": (_ref, ...), "claim": (dict, ...)}
_KIND = {"kind": (str, ...)}
# Each claim kind's table, and what builds the claim from its values after the kind.
_CLAIMS = {
    "is_zero": (_KIND, Claim.is_zero),
    "torsion_free": (_KIND, Claim.torsion_free),
    "only_primes": ({**_KIND, "primes": (_integers, ...)}, Claim.only_primes),
    "iso_to": ({**_KIND, "rank": (int, ...), "torsion": (_integers, ...)}, _iso_to),
    "torsion_equals": ({**_KIND, "other": (_ref, ...)}, Claim.torsion_equals),
    "torsion_injects_into": ({**_KIND, "other": (_ref, ...)}, Claim.torsion_injects_into),
}


def _fact(value, spaces: dict) -> Fact:
    subject, claim = _keys(value, "fact", _FACT)
    kind = claim.get("kind")
    if type(kind) is not str or kind not in _CLAIMS:
        raise ScriptFormatError(f"claim: unknown kind {reprlib.repr(kind)}")
    spec, build = _CLAIMS[kind]
    claim = build(*_keys(claim, kind, spec)[1:])
    _check_refs(spaces, ScriptFormatError, subject, claim.other)
    return Fact(subject, claim)


def _named(values: list, what: str, spec: dict) -> dict:
    """Each object in ``values`` read by ``spec``, by its first value, which no two may share."""
    out = {}
    for value in values:
        name, *rest = _keys(value, what, spec)
        if name in out:
            raise ScriptFormatError(f"{what}: duplicate {next(iter(spec))} {name!r}")
        out[name] = rest
    return out


def _unique_keys(pairs: list) -> dict:
    d = dict(pairs)
    if len(d) < len(pairs):
        # Counted once: the first key, in document order, that occurs twice.
        counts = Counter(key for key, _ in pairs)
        raise ScriptFormatError(f"duplicate key {next(k for k, n in counts.items() if n > 1)!r}")
    return d


def _no_constant(name: str):
    raise ScriptFormatError(f"{name} is not a JSON number")


def read_script(text: str | bytes) -> Script:
    """The script in a JSON text, bytes read as UTF-8; raises ScriptFormatError if it is none."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        document = json.loads(text, object_pairs_hook=_unique_keys, parse_constant=_no_constant)
    except (ValueError, RecursionError) as exc:
        # Not UTF-8 or not JSON, nested deeper than the decoder follows, or
        # an integer literal longer than the interpreter converts.
        raise ScriptFormatError(f"not a readable JSON document: {exc}") from None
    return parse_script(document)


def parse_script(document) -> Script:
    """The script in a decoded JSON document; raises ScriptFormatError if it is malformed."""
    version, spaces, axioms, steps, goals = _keys(document, "script", _SCRIPT)
    if version != SCRIPT_FORMAT:
        raise ScriptFormatError(f"unsupported script format {reprlib.repr(version)}")
    declared: dict[str, tuple[str, str] | None] = {}
    for name, (pair,) in _named(spaces, "space", _SPACE).items():
        if pair is not None and (len(pair) != 2 or any(type(m) is not str for m in pair)):
            raise ScriptFormatError(f"space {name!r}: pair must name two spaces")
        declared[name] = None if pair is None else tuple(pair)
    for name, pair in declared.items():
        # So that no two groups print alike: H^k of "A" and of "(A)" both print as H^k(A).
        if pair is None and name.startswith("("):
            raise ScriptFormatError(f"plain space {name!r} must not start with '('")
        if pair is not None and name[:1] + name[-1:] == "()" and name[1:-1] in declared:
            raise ScriptFormatError(f"pair {name!r} prints like space {name[1:-1]!r}")
        for member in pair or ():
            if declared.get(member, ()) is not None:  # undeclared, or a pair itself
                raise ScriptFormatError(f"pair {name!r} refers to {member!r}, not a plain space")
    axioms = [
        Axiom(aid, cite, tuple([_fact(f, declared) for f in facts]), computation)
        for aid, (cite, facts, computation) in _named(axioms, "axiom", _AXIOM).items()
    ]
    steps = [
        Step(sid, rule, cite, dict(params), tuple([_fact(f, declared) for f in inputs]))
        for sid, (rule, cite, params, inputs) in _named(steps, "step", _STEP).items()
    ]
    goals = tuple([_fact(f, declared) for f in goals])
    return Script(SCRIPT_FORMAT, declared, tuple(axioms), tuple(steps), goals)


def _getter(spec: dict):
    """One call that reads the value of every key of ``spec`` off an object, as a tuple."""
    get = operator.attrgetter(*spec)
    return get if len(spec) > 1 else lambda obj: (get(obj),)


# Each object's table and its getter, by class and, for a claim, by kind.
_WRITERS = {
    key: (spec, _getter(spec))
    for key, spec in [(Script, _SCRIPT), (Axiom, _AXIOM), (Step, _STEP), (Fact, _FACT),
                      *[(kind, spec) for kind, (spec, _) in _CLAIMS.items()]]
}
# Values written as they are; dict is a step's params, which the reader keeps as given.
_PLAIN = frozenset([str, int, bool, dict])


def _json(value):
    """``value`` as JSON: a script object as its table lists it, leaving out None and False."""
    kind = type(value)
    if kind in _PLAIN:
        return value
    if kind is GroupRef:
        return value.to_json_dict()
    if kind is tuple:
        return [_json(v) for v in value]
    if kind is frozenset:
        return sorted(value)
    spec, get = _WRITERS[value.kind if kind is Claim else kind]
    return _write(spec, get(value))


def _write(spec: dict, values) -> dict:
    out = {}
    for key, v in zip(spec, values):
        if v is not None and v is not False:
            out[key] = v if type(v) in _PLAIN else _json(v)
    return out


def script_to_json_dict(script: Script) -> dict:
    """``script`` as the JSON document that ``parse_script`` reads back."""
    spaces = [_write(_SPACE, item) for item in script.spaces.items()]  # each (name, pair)
    return _json(script) | {"spaces": spaces}


def without_axiom(script: Script, axiom_id: str) -> Script:
    if all(a.id != axiom_id for a in script.axioms):
        raise KeyError(axiom_id)
    return script.replace(axioms=tuple([a for a in script.axioms if a.id != axiom_id]))


def without_step(script: Script, step_id: str) -> Script:
    if all(s.id != step_id for s in script.steps):
        raise KeyError(step_id)
    return script.replace(steps=tuple([s for s in script.steps if s.id != step_id]))


# --------------------------------------------------------------------------
# rules
#
# A rule reads only its step, the declared spaces and the step's parameters,
# which apply_rule reads through the rule's table, and returns the facts it
# consumes with its conclusions.  apply_rule, the one path by which a step
# reaches the store, checks the consumed facts against the declared inputs
# and the established fact set, then commits the conclusions in place.

_Derived = tuple[list[Fact], list[Fact]]  # the facts a rule consumes, and its conclusions


def _about(step: Step, ref: GroupRef) -> tuple[Fact, frozenset[int]]:
    """The first declared input about ``ref`` and its bound on the torsion primes.

    apply_rule rejects any other declared input about ``ref``.
    """
    for fact in step.inputs:
        if fact.subject is ref:
            bound = fact.claim.bound
            if bound is None:
                raise ParameterMismatchError(
                    f"step {step.id}: input {fact.render()} carries no torsion information"
                )
            return fact, bound
    raise MissingInputError(f"step {step.id}: needs a fact about {ref.render()}")


def _rule_thom_iso(step: Step, spaces: dict, pair, center, copies, codim, degrees) -> _Derived:
    # H^k(pair) = (copies) disjoint summands of H^(k - codim)(center).
    if copies < 1 or codim < 1:
        raise ParameterMismatchError(f"step {step.id}: copies and codim must be positive")
    _pair(step, spaces, pair)
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


def _pair(step: Step, spaces: dict, name: str) -> tuple[str, str]:
    """The members (X, Y) of the declared pair ``name``."""
    pair = spaces.get(name)
    if pair is None:
        raise ParameterMismatchError(f"step {step.id}: {name!r} is not a declared pair")
    return pair


def _check_sequence(step: Step, spaces: dict, zero: GroupRef, *terms: GroupRef) -> None:
    """``terms`` must run H^k(X), H^k(Y), H^(k+1)(P) on from ``zero`` = H^k(P), P = (X, Y)."""
    x, y = _pair(step, spaces, zero.space)
    k = zero.degree
    sequence = (GroupRef(x, k), GroupRef(y, k), GroupRef(zero.space, k + 1))[: len(terms)]
    if terms != sequence:
        want = ", ".join(ref.render() for ref in sequence)
        raise ParameterMismatchError(f"step {step.id}: after {zero.render()} must come {want}")


def _rule_les_torsion_equal(step: Step, spaces: dict, zero, left, mid, right) -> _Derived:
    # The pair's exact H^k(P) -> H^k(X) -> H^k(Y) -> H^(k+1)(P) with the first
    # term zero and the last torsion free: H^k(X) and H^k(Y) have the same torsion.
    _check_sequence(step, spaces, zero, left, mid, right)
    consumed = [Fact(zero, Claim.is_zero()), Fact(right, Claim.torsion_free())]
    return consumed, [Fact(left, Claim.torsion_equals(mid))]


def _rule_les_inject(step: Step, spaces: dict, zero, source, target) -> _Derived:
    # The pair's exact H^k(P) -> H^k(X) -> H^k(Y) with the first term zero:
    # the torsion of H^k(X) embeds in that of H^k(Y).
    _check_sequence(step, spaces, zero, source, target)
    return [Fact(zero, Claim.is_zero())], [Fact(source, Claim.torsion_injects_into(target))]


def _rule_transfer_cover(step: Step, spaces: dict, d, total, base, k) -> _Derived:
    # Degree-d covering total -> base: restriction followed by transfer is
    # multiplication by d, so base torsion away from d injects into the
    # total space's torsion.
    if d < 2:
        raise ParameterMismatchError(f"step {step.id}: cover degree must be >= 2")
    if d >= FACTOR_BOUND:
        raise ParameterMismatchError(f"step {step.id}: cover degree must be below {FACTOR_BOUND}")
    fact, upstairs = _about(step, GroupRef(total, k))
    primes = frozenset(prime_factors(d)) | upstairs
    return [fact], [Fact(GroupRef(base, k), Claim.only_primes(primes))]


def _rule_blowup_split(step: Step, spaces: dict, blowup, base, center, codim, degrees) -> _Derived:
    # Blow-up along a smooth center of complex codimension c: cohomology
    # splits off shifted copies of the center, so torsion primes of the
    # blow-up are bounded by those of the base and the shifted center.
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


def _rule_duality_uct(step: Step, spaces: dict, manifold, n, j) -> _Derived:
    # On a closed oriented n-manifold, Poincare duality plus universal
    # coefficients give tors H^(j+1) = tors H_j = tors H^(n-j).
    if not 0 <= j < n:
        raise ParameterMismatchError(f"step {step.id}: homology degree out of range")
    return [], [Fact(GroupRef(manifold, j + 1), Claim.torsion_equals(GroupRef(manifold, n - j)))]


def _rule_spectral_vanishing(step: Step, spaces: dict, quotient, group, coefficient, k) -> _Derived:
    # Cartan-Leray for a free action: when every H^p(G, H^(k-p)) with
    # p >= 1 vanishes, H^k of the quotient is the invariant edge term,
    # which is torsion free whenever the fixed part is.
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


def _rule_complement_iso(step: Step, spaces: dict, manifold, complement, n, _, degrees) -> _Derived:
    # Removing a finite point set from a closed n-manifold leaves H^k
    # unchanged for k <= n - 2.
    for k in degrees:
        if k > n - 2:
            raise ParameterMismatchError(f"step {step.id}: degree {k} exceeds dim - 2 = {n - 2}")
    return [], [
        Fact(GroupRef(manifold, k), Claim.torsion_equals(GroupRef(complement, k)))
        for k in degrees
    ]


def _rule_combine_primes(step: Step, spaces: dict, subject, first, second) -> _Derived:
    # Two torsion bounds on the same group intersect.
    bounds = [Fact(subject, Claim.only_primes(first)), Fact(subject, Claim.only_primes(second))]
    return bounds, [Fact(subject, Claim.only_primes(set(first) & set(second)))]


# Each rule's parameter table, all of its keys required, and the rule, which
# takes their values in the table's order after the step and the spaces.
_RULES = {
    "thom_iso": ({"pair": (str, ...), "center": (str, ...), "copies": (int, ...),
                  "codim": (int, ...), "degrees": (_integers, ...)}, _rule_thom_iso),
    "les_torsion_equal": ({"zero": (_ref, ...), "left": (_ref, ...), "mid": (_ref, ...),
                           "right": (_ref, ...)}, _rule_les_torsion_equal),
    "les_inject": ({"zero": (_ref, ...), "source": (_ref, ...), "target": (_ref, ...)},
                   _rule_les_inject),
    "transfer_cover": ({"cover_degree": (int, ...), "total": (str, ...), "base": (str, ...),
                        "k": (int, ...)}, _rule_transfer_cover),
    "blowup_split": ({"blowup": (str, ...), "base": (str, ...), "center": (str, ...),
                      "codim": (int, ...), "degrees": (_integers, ...)}, _rule_blowup_split),
    "duality_uct": ({"manifold": (str, ...), "dim": (int, ...), "homology_degree": (int, ...)},
                    _rule_duality_uct),
    "spectral_vanishing": ({"quotient": (str, ...), "group": (str, ...),
                            "coefficient": (str, ...), "k": (int, ...)}, _rule_spectral_vanishing),
    "complement_iso": ({"manifold": (str, ...), "complement": (str, ...), "dim": (int, ...),
                        "removed_points": (int, ...), "degrees": (_integers, ...)},
                       _rule_complement_iso),
    "combine_primes": ({"subject": (_ref, ...), "first": (_integers, ...),
                        "second": (_integers, ...)}, _rule_combine_primes),
}


def apply_rule(store: FactStore, step: Step) -> tuple[str, ...]:
    """Replay one step on ``store``, in place; render the facts it added.

    The step's parameters are read through its rule's table, and the declared
    inputs must be exactly the facts the rule consumes, each already
    established.  The conclusions and their closure are added all or
    none; re-applying an applied step adds nothing.
    """
    if step.rule not in _RULES:
        raise UnknownRuleError(f"step {step.id}: unknown rule {step.rule!r}")
    spec, rule = _RULES[step.rule]
    params = _keys(step.params, f"step {step.id}", spec, ParameterMismatchError, "parameter")
    consumed, outputs = rule(step, store.spaces, *params)
    if set(step.inputs) != set(consumed) or len(step.inputs) != len(consumed):
        want = ", ".join(f.render() for f in consumed) or "(none)"
        raise ParameterMismatchError(f"step {step.id}: inputs must be exactly: {want}")
    for fact in consumed:
        if fact not in store:
            raise MissingInputError(f"step {step.id}: input not established: {fact.render()}")
    return _commit(store, outputs, ("step", step.id))


def _commit(store: FactStore, facts, source: tuple) -> tuple[str, ...]:
    """Add ``facts`` and their closure to ``store``, all or none; render what was added.

    On any error, rendering included, the store is rolled back to where it was.
    """
    mark = len(store)
    try:
        added = []
        for fact in facts:
            added += store.add(fact, source)
        return tuple([f.render() for f in added])
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
    store = FactStore(script.spaces)
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
            new = apply_rule(store, st)
            step_records.append(StepRecord(st.id, st.rule, True, None, new))
        except Exception as exc:
            # Not only LedgerError: whatever a rule raises fails its own step,
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
    return Report(passed=passed, axioms=tuple(axiom_records), steps=tuple(step_records),
                  goals=tuple(goal_records), first_failure=first_failure,
                  fact_count=len(store), grounded=grounded)


# --------------------------------------------------------------------------
# computation-backed axioms


def coefficient_space(q: int, group: str = "A3", coefficient: str = "V") -> str:
    """The declared name of the coefficient system H^q as a module."""
    return f"{group},H^{q}({coefficient})"


def leaf_facts_from_computation(model: KummerModel) -> tuple[Axiom, ...]:
    """The computed vanishing and fixed-part facts, as taggable axioms.

    ``model.vanishing`` raises ``CertificateFailure`` on a non-zero entry, before
    the model is tagged, so a certificate that does not vanish never turns into axioms.
    """
    entries = model.vanishing
    tag = model.content_tag()
    axioms: list[Axiom] = []
    for entry in entries:
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
        rank = model.fixed_ranks[q]
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
