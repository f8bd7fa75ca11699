"""The contract of equiko's immutable value classes.

Every value class is built by keyword with its field names, positionally in
field order, and with its defaults; it compares and hashes by its field
values, never equals an instance of another class, refuses assignment and
deletion, survives `copy`, and (unless it prints itself) has the repr
`Name(field=value, ...)`.
"""

import ast
import copy
import itertools
from pathlib import Path

import pytest

import equiko
from equiko.arithmetic_k import ClassCount
from equiko.bredon import GammaCWDatum, GraphOfGroupsDatum
from equiko.exactlinalg import FinAbGroup, IntChainComplex, IntMatrix
from equiko.fuchsian import Signature
from equiko.groups import FiniteGroupData, GroupId, build_group
from equiko.ko_assembly import GradedGroup
from equiko.verify import CheckResult

_1 = GroupId.trivial()
_Z2 = GroupId.cyclic(2)
_Z2_DATA = build_group(_Z2)
_VERTEX = ("v", _1)
_LOOP = ("e", _1, ("v", "id"), ("v", "id"))

#: class -> (keyword arguments naming every field, in field order;
#:           one field and a value that makes an unequal instance)
VALUES = {
    IntMatrix: (dict(rows=1, cols=2, entries=(3, 4)), ("entries", (3, 5))),
    FinAbGroup: (dict(free_rank=1, torsion=((2, 1), (4, 1))), ("free_rank", 2)),
    IntChainComplex: (dict(ranks=(1, 1), boundaries=(IntMatrix(1, 1, (0,)),)),
                      ("boundaries", (IntMatrix(1, 1, (2,)),))),
    GroupId: (dict(kind="dihedral", m=3, twos=1), ("twos", 2)),
    FiniteGroupData: (dict(
        order=2, mult=_Z2_DATA.mult, classes=_Z2_DATA.classes,
        class_index=_Z2_DATA.class_index, square_class=_Z2_DATA.square_class,
    ), ("order", 3)),
    GammaCWDatum: (dict(name="pt", cells=((_VERTEX,),), boundaries=(), snf_equivalent=False),
                   ("snf_equivalent", True)),
    GraphOfGroupsDatum: (dict(name="loop", vertices=(_VERTEX,), edges=(_LOOP,)),
                         ("edges", ())),
    Signature: (dict(g=0, s=1, periods=(2, 3)), ("s", 2)),
    GradedGroup: (dict(groups=(FinAbGroup.zero(),) * 8, extension_ambiguous=frozenset({1})),
                  ("extension_ambiguous", frozenset())),
    CheckResult: (dict(name="snf", passed=True, detail="ok"), ("passed", False)),
    ClassCount: (dict(identity=1, order2=2, order3=4), ("order3", 2)),
}

#: Classes that print themselves (`str` and `repr` agree) instead of their fields.
OWN_REPR = (FinAbGroup, Signature)

CLASSES = list(VALUES)
IDS = [cls.__name__ for cls in CLASSES]


def _build(cls):
    return cls(**VALUES[cls][0])


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_keyword_and_positional_calls_agree(cls):
    kwargs = VALUES[cls][0]
    value = cls(**kwargs)
    assert value == cls(*kwargs.values())
    assert {name: getattr(value, name) for name in kwargs} == kwargs


#: (class, keyword arguments, the defaults of the fields left out)
DEFAULTS = [
    (FinAbGroup, dict(free_rank=1), dict(torsion=())),
    (GroupId, dict(kind="sym4"), dict(m=0, twos=0)),
    (GammaCWDatum, dict(name="pt", cells=((_VERTEX,),), boundaries=()),
     dict(snf_equivalent=False)),
    (Signature, dict(g=2, s=0), dict(periods=())),
    (GradedGroup, dict(groups=(FinAbGroup.zero(),) * 8), dict(extension_ambiguous=frozenset())),
]


@pytest.mark.parametrize("cls, kwargs, defaults", DEFAULTS, ids=[d[0].__name__ for d in DEFAULTS])
def test_defaults(cls, kwargs, defaults):
    value = cls(**kwargs)
    assert {name: getattr(value, name) for name in defaults} == defaults


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(cls):
    value = _build(cls)
    for name, before in VALUES[cls][0].items():
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) == before
    with pytest.raises(AttributeError):
        value.not_a_field = 1


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls):
    kwargs, (field, other) = VALUES[cls]
    a, b = cls(**kwargs), cls(**kwargs)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != cls(**{**kwargs, field: other})
    assert copy.copy(a) == a and copy.deepcopy(a) == a


def test_instances_of_different_classes_are_unequal():
    values = [_build(cls) for cls in CLASSES]
    for a, b in itertools.permutations(values, 2):
        assert a != b and not a == b


@pytest.mark.parametrize("cls", [c for c in CLASSES if c not in OWN_REPR],
                         ids=[c.__name__ for c in CLASSES if c not in OWN_REPR])
def test_repr_names_every_field(cls):
    kwargs = VALUES[cls][0]
    fields = ", ".join(f"{name}={value!r}" for name, value in kwargs.items())
    assert repr(_build(cls)) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls", OWN_REPR, ids=[c.__name__ for c in OWN_REPR])
def test_own_repr_is_str(cls):
    value = _build(cls)
    assert repr(value) == str(value)


#: class -> the keyword arguments of VALUES with a list or a set in place of
#: each tuple or frozenset field
MUTABLE = {
    IntMatrix: dict(rows=1, cols=2, entries=[3, 4]),
    FinAbGroup: dict(free_rank=1, torsion=[(2, 1), (4, 1)]),
    IntChainComplex: dict(ranks=[1, 1], boundaries=[IntMatrix(1, 1, [0])]),
    GradedGroup: dict(groups=[FinAbGroup.zero()] * 8, extension_ambiguous={1}),
}


@pytest.mark.parametrize("cls", MUTABLE, ids=[cls.__name__ for cls in MUTABLE])
def test_mutable_containers_are_stored_as_tuples(cls):
    value = cls(**MUTABLE[cls])
    assert value == _build(cls) and hash(value) == hash(_build(cls))
    assert {name: type(getattr(value, name)) for name in MUTABLE[cls]} == {
        name: type(x) for name, x in VALUES[cls][0].items()}


def _bad_calls(cls):
    """Calls that miss a field, add a value, name no field, or give one
    field both by position and by name."""
    kwargs = VALUES[cls][0]
    values = list(kwargs.values())
    yield (), dict(list(kwargs.items())[1:])
    yield (*values, values[-1]), {}
    yield (), {**kwargs, "not_a_field": 1}
    yield (values[0],), kwargs


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_a_missing_extra_unknown_or_repeated_field_is_refused(cls):
    for args, kwargs in _bad_calls(cls):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_only_value_writes_fields():
    # an ast walk, so a mention in a docstring or a comment does not count
    src = Path(equiko.__file__).parent
    writers = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object"):
                writers.add(path.name)
    assert writers == {"_value.py"}
