"""The library's value types: terms, seeds, rules, theories, letters,
relation instances and tree-pair diagrams.  Each is a plain class over
`terms.Value`, which the library uses so that importing it does not import
`dataclasses`; each keeps the behaviour of a frozen dataclass."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from treegroups.coherence import Generator, RelationInstance
from treegroups.diagrams import TreeDiagram
from treegroups.operators import Rule, Seed, Theory, TranslatedRule, regroup_rule, swap_rule
from treegroups.terms import App, Value, Var, catalan_signature
from treegroups.unify import UnifierPair


def _term():
    return App("*", (Var("x1"), App("*", (Var("x2"), Var("x3")))))


# Each case builds a value afresh, and holds its `repr` and a value of the
# same class with other fields.
CASES = [
    (lambda: Var("x1"), "Var('x1')", Var("x2")),
    (_term, "App('*', (Var('x1'), App('*', (Var('x2'), Var('x3')))))", App("*", (Var("x1"), Var("x2")))),
    (
        lambda: UnifierPair({"x1": Var("y")}, {}),
        "UnifierPair(left={'x1': Var('y')}, right={})",
        UnifierPair({}, {}),
    ),
    (
        lambda: regroup_rule(2, 1),
        "Rule(name='a1', source=App('*', (Var('x1'), App('*', (Var('x2'), Var('x3'))))), "
        "target=App('*', (App('*', (Var('x1'), Var('x2'))), Var('x3'))))",
        swap_rule(2, 1),
    ),
    (
        lambda: TranslatedRule(swap_rule(2, 1), (2,)),
        "TranslatedRule(rule=Rule(name='s1', source=App('*', (Var('x1'), Var('x2'))), "
        "target=App('*', (Var('x2'), Var('x1')))), address=(2,), forward=True)",
        TranslatedRule(swap_rule(2, 1), (2,), False),
    ),
    (
        lambda: Seed(Var("x1"), Var("x1")),
        "Seed(Var('x1') -> Var('x1'))",
        Seed(Var("x2"), Var("x2")),
    ),
    (
        lambda: Theory("sc", catalan_signature(2), (swap_rule(2, 1),), 2),
        "Theory(name='sc', signature=Signature(*/2), rules=(Rule(name='s1', "
        "source=App('*', (Var('x1'), Var('x2'))), target=App('*', (Var('x2'), Var('x1')))),), n=2)",
        Theory("sc", catalan_signature(2), (swap_rule(2, 1),)),
    ),
    (
        lambda: TreeDiagram(2, ((), ()), ((), ()), (2, 1)),
        "TreeDiagram(n=2, domain=((), ()), range=((), ()), perm=(2, 1))",
        TreeDiagram(2, ((), ()), ((), ()), (1, 2)),
    ),
    (lambda: Generator("a", 1, -1, (1, 2)), "Generator('A1[1.2]')", Generator("a", 1, 1, (1, 2))),
    (
        lambda: RelationInstance("involution", (1,), (), (Generator("s", 1),) * 2, ()),
        "RelationInstance(family='involution', indices=(1,), base=(), "
        "lhs=(Generator('s1[-]'), Generator('s1[-]')), rhs=())",
        RelationInstance("involution", (1,), (2,), (Generator("s", 1),) * 2, ()),
    ),
]


def _hashable(value) -> bool:
    return not isinstance(value, UnifierPair)  # its fields are dicts


@pytest.mark.parametrize("build, spelled, other", CASES, ids=[s.split("(")[0] for _, s, _ in CASES])
def test_values_behave_as_frozen_dataclasses(build, spelled, other):
    value, twin = build(), build()
    assert isinstance(value, Value)
    assert value is not twin and value == twin and not value != twin
    assert value != other and type(other) is type(value)
    if _hashable(value):
        assert hash(value) == hash(twin)
    assert repr(value) == spelled
    for copied in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is type(value) and copied == value and repr(copied) == spelled
    field = type(value)._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == spelled


def test_values_of_two_classes_with_the_same_fields_differ():
    seed = Seed(Var("x1"), Var("x2"))
    pair = UnifierPair(Var("x1"), Var("x2"))  # the same field values as `seed`
    assert seed != pair and pair != seed
    assert Seed.__eq__(seed, pair) is NotImplemented
    assert Var("x1") != "x1" and Var.__eq__(Var("x1"), "x1") is NotImplemented
    assert Generator.__eq__(Generator("a", 1), (("a", 1, 1, ()))) is NotImplemented
    assert TreeDiagram(2, (), (), (1,)) != TreeDiagram(3, (), (), (1,))


def test_the_library_imports_without_dataclasses_inspect_or_json():
    root = Path(__file__).resolve().parents[1]
    probe = "import sys, treegroups, treegroups.cli; print(sorted({'dataclasses', 'inspect', 'json'} & sys.modules.keys()))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
