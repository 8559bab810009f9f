"""The package's value types: immutable, equal and hashed field-wise, printed like dataclasses."""

import copy
import pickle

import pytest

from kummercert.cli import RunConfig
from kummercert.cohomology import LatticeAction
from kummercert.jordan import JordanType
from kummercert.kummer import VanishingEntry
from kummercert.ledger import (
    Axiom,
    AxiomRecord,
    Claim,
    Fact,
    GoalRecord,
    GroupRef,
    Report,
    Script,
    Step,
    StepRecord,
)
from kummercert.linalg import FinAbGroup, FpMatrix, IntMatrix

SIGMA = IntMatrix(((-1, 1), (-1, 0)))
SIGMA_REPR = "LatticeAction(matrix=IntMatrix([[-1, 1], [-1, 0]]))"
FACT = Fact(GroupRef("X", 3), Claim("is_zero"))
FACT_REPR = (
    "Fact(subject=GroupRef(space='X', degree=3), "
    "claim=Claim(kind='is_zero', primes=None, group=None, other=None))"
)
ENTRY_REPR = "VanishingEntry(p=1, q=2, group=FinAbGroup(rank=0, torsion=()))"

# (class, constructor keywords, a field to change, its new value, its repr)
CASES = [
    (FinAbGroup, dict(rank=1, torsion=(3,)), "rank", 2, "FinAbGroup(rank=1, torsion=(3,))"),
    (JordanType, dict(l1=1, l2=2, l3=3), "l3", 0, "JordanType(l1=1, l2=2, l3=3)"),
    (LatticeAction, dict(matrix=SIGMA), "matrix", IntMatrix.identity(2), SIGMA_REPR),
    (VanishingEntry, dict(p=1, q=2, group=FinAbGroup(0)), "group", FinAbGroup(0, (3,)), ENTRY_REPR),
    (GroupRef, dict(space="X", degree=3), "degree", 4, "GroupRef(space='X', degree=3)"),
    (
        Claim,
        dict(kind="only_primes", primes=frozenset({3})),
        "primes",
        frozenset({2}),
        "Claim(kind='only_primes', primes=frozenset({3}), group=None, other=None)",
    ),
    (
        Fact,
        dict(subject=GroupRef("X", 3), claim=Claim("is_zero")),
        "subject",
        GroupRef("Y", 3),
        FACT_REPR,
    ),
    (
        Axiom,
        dict(id="a1", cite="cite", facts=(FACT,), computation=True),
        "computation",
        False,
        f"Axiom(id='a1', cite='cite', facts=({FACT_REPR},), computation=True)",
    ),
    (
        Step,
        dict(id="s1", rule="rule", cite="cite", params={"p": 3}, inputs=(FACT,)),
        "rule",
        "other",
        f"Step(id='s1', rule='rule', cite='cite', params={{'p': 3}}, inputs=({FACT_REPR},))",
    ),
    (
        Script,
        dict(format="kummer-proof/1", spaces={"X": None}, axioms=(), steps=(), goals=(FACT,)),
        "goals",
        (),
        "Script(format='kummer-proof/1', spaces={'X': None}, axioms=(), "
        f"steps=(), goals=({FACT_REPR},))",
    ),
    (
        AxiomRecord,
        dict(id="a1", ok=True, error=None, facts=("f",)),
        "ok",
        False,
        "AxiomRecord(id='a1', ok=True, error=None, facts=('f',))",
    ),
    (
        StepRecord,
        dict(id="s1", rule="rule", ok=False, error="err", outputs=()),
        "error",
        None,
        "StepRecord(id='s1', rule='rule', ok=False, error='err', outputs=())",
    ),
    (
        GoalRecord,
        dict(fact="g", established=True, chain=("a1",)),
        "chain",
        (),
        "GoalRecord(fact='g', established=True, chain=('a1',))",
    ),
    (
        Report,
        dict(
            passed=True,
            axioms=(),
            steps=(),
            goals=(),
            first_failure=None,
            fact_count=3,
            grounded=True,
        ),
        "fact_count",
        4,
        "Report(passed=True, axioms=(), steps=(), goals=(), first_failure=None, fact_count=3, "
        "grounded=True)",
    ),
    (
        RunConfig,
        dict(command="full-cert", seed=7),
        "seed",
        8,
        "RunConfig(command='full-cert', output_format='text', script_path=None, seed=7)",
    ),
]
IDENTITY_EQ = (Step, Script)
# Hash-consed: equal values are one object.  Each field's other value, to show it is in the key.
INTERNED = (GroupRef, Claim, Fact)
OTHER_FIELD_VALUES = {
    GroupRef: dict(space="Y", degree=4),
    Claim: dict(kind="torsion_free", primes=frozenset({2}), group=FinAbGroup(0),
                other=GroupRef("Y", 1)),
    Fact: dict(subject=GroupRef("Y", 3), claim=Claim("torsion_free")),
}
# Unhashable as before: a field holds a matrix.
UNHASHABLE = (LatticeAction,)


@pytest.mark.parametrize(
    "cls, fields, name, new, expected_repr", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_value_semantics(cls, fields, name, new, expected_repr):
    a, b = cls(**fields), cls(**fields)
    changed = cls(**{**fields, name: new})

    assert repr(a) == expected_repr
    with pytest.raises(AttributeError):
        setattr(a, name, new)
    with pytest.raises(AttributeError):
        delattr(a, name)
    assert getattr(a, name) == fields[name]

    if cls in IDENTITY_EQ:
        assert a == a and a != b and hash(a) != hash(b)
    elif cls in INTERNED:
        assert cls(**fields) is a
        assert copy.copy(a) is a and copy.deepcopy(a) is a and pickle.loads(pickle.dumps(a)) is a
        for field in cls._fields:
            assert cls(**{**fields, field: OTHER_FIELD_VALUES[cls][field]}) is not a, field
    else:
        assert a == cls(**fields) and a != changed
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(cls(**fields))
    twin = type("Twin", (cls,), {})(**fields)
    assert a != twin and twin != a
    assert a != tuple(fields.values())

    replaced = a.replace(**{name: new})
    assert type(replaced) is cls
    for field in cls._fields:
        expected = new if field == name else getattr(a, field)
        assert getattr(replaced, field) == expected
    with pytest.raises(TypeError):
        a.replace(no_such_field=1)
    assert repr(copy.copy(a)) == expected_repr


@pytest.mark.parametrize(
    "args, message",
    [
        ((-1,), "rank must be non-negative"),
        ((0, (1,)), "invariant factors must be >= 2"),
        ((0, (4, 6)), "invariant factors must form a divisibility chain"),
    ],
)
def test_group_validation_messages(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        FinAbGroup(*args)


@pytest.mark.parametrize("counts", [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
def test_jordan_type_validation_message(counts):
    with pytest.raises(ValueError, match="^block counts must be non-negative$"):
        JordanType(*counts)


class Three:
    """An int-like that is not an int: ``operator.index`` reads it as 3."""

    def __index__(self):
        return 3


# (value type, built with x in one integer slot, the value built with x = 3)
INTEGER_SLOTS = [
    ("IntMatrix", lambda x: IntMatrix([[x, 3]]), IntMatrix([[3, 3]])),
    ("FpMatrix", lambda x: FpMatrix(5, [[x, 7]]), FpMatrix(5, [[3, 2]])),
    ("FinAbGroup.rank", lambda x: FinAbGroup(x, (3,)), FinAbGroup(3, (3,))),
    ("FinAbGroup.torsion", lambda x: FinAbGroup(0, [x]), FinAbGroup(0, (3,))),
    ("JordanType", lambda x: JordanType(x, 0, 0), JordanType(3, 0, 0)),
]


@pytest.mark.parametrize(
    "build, expected", [case[1:] for case in INTEGER_SLOTS], ids=[case[0] for case in INTEGER_SLOTS]
)
def test_value_types_take_exact_integers(build, expected):
    for inexact in (2.7, 3.0, "3"):
        with pytest.raises(TypeError):
            build(inexact)
    # An int-like reads as the int, and a list torsion as the tuple one.
    for exact in (3, Three()):
        built = build(exact)
        assert built == expected and repr(built) == repr(expected) and str(built) == str(expected)
        if expected.__hash__ is not None:
            assert hash(built) == hash(expected)
