"""The shape of the library's walks, checked on the source with `ast`.

Every recursive walk in `src/treegroups` is a plain loop in a module
function or method (ROADMAP, "Constraints every item keeps"):

- no function or lambda is nested in a function, so no closure refers to
  itself and leaves a reference cycle per call, and there is no `nonlocal`;
- no function calls itself inside a comprehension, a generator expression,
  a lambda or `map(...)`, each of which costs an extra frame or C call per
  level of the walk;
- no module uses `itertools.repeat`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "treegroups"
INDIRECT = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp, ast.Lambda)


def _name_of(node) -> str | None:
    """The name a node refers to: `f` for `f`, and `f` for `x.f`."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def indirect_self_calls(function) -> list:
    """Calls of `function` to its own name inside a comprehension, a
    generator expression, a lambda or the arguments of `map(...)`."""
    found = {}
    for node in ast.walk(function):
        if isinstance(node, ast.Call) and _name_of(node.func) == "map":
            for arg in node.args:
                if _name_of(arg) == function.name:
                    found[id(arg)] = arg
            inside = node.args
        elif isinstance(node, INDIRECT):
            inside = [node]
        else:
            continue
        for part in inside:
            for call in ast.walk(part):
                if isinstance(call, ast.Call) and _name_of(call.func) == function.name:
                    found[id(call)] = call
    return sorted(found.values(), key=lambda node: (node.lineno, node.col_offset))


class _Shape(ast.NodeVisitor):
    def __init__(self, filename: str):
        self.filename = filename
        self.enclosing = []
        self.found = []

    def report(self, node, what: str) -> None:
        self.found.append(f"{self.filename}:{node.lineno} {what}")

    def visit_function(self, node) -> None:
        name = getattr(node, "name", "<lambda>")
        if self.enclosing:
            self.report(node, f"{name} nested in {self.enclosing[-1]}")
        if not isinstance(node, ast.Lambda):
            for call in indirect_self_calls(node):
                self.report(call, f"{name} calls itself indirectly")
        self.enclosing.append(name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda = visit_function

    def visit_Nonlocal(self, node) -> None:
        self.report(node, f"nonlocal {', '.join(node.names)}")

    def visit_Attribute(self, node) -> None:
        if node.attr == "repeat" and _name_of(node.value) == "itertools":
            self.report(node, "itertools.repeat")
        self.generic_visit(node)

    def visit_ImportFrom(self, node) -> None:
        if node.module == "itertools" and any(a.name == "repeat" for a in node.names):
            self.report(node, "itertools.repeat")


def offences(source: str, filename: str) -> list:
    shape = _Shape(filename)
    shape.visit(ast.parse(source, filename))
    return shape.found


def test_the_checker_finds_each_offence():
    source = '''
import itertools
from itertools import repeat

def outer(t):
    total = 0
    def inner(u):
        nonlocal total
        return [inner(c) for c in u]
    return inner(t)

def by_map(t):
    return list(map(by_map, t))

def by_generator(t):
    return sum(by_generator(c) for c in t)

def by_lambda(t):
    return (lambda c: by_lambda(c))(t)

class Node:
    def walk(self):
        return [kid.walk() for kid in self.kids]

def padded(n):
    return list(itertools.repeat(0, n))

LOOKUP = {"f": lambda n: [n]}
'''
    found = [line.split(" ", 1)[1] for line in offences(source, "probe.py")]
    assert found == [
        "itertools.repeat",
        "inner nested in outer",
        "inner calls itself indirectly",
        "nonlocal total",
        "by_map calls itself indirectly",
        "by_generator calls itself indirectly",
        "by_lambda calls itself indirectly",
        "<lambda> nested in by_lambda",
        "walk calls itself indirectly",
        "itertools.repeat",
    ]


def test_src_walks_are_plain_loops_in_module_functions():
    paths = sorted(SRC.glob("*.py"))
    modules = {"cli", "coherence", "diagrams", "operators", "terms", "unify"}
    assert modules <= {path.stem for path in paths}
    found = []
    for path in paths:
        found.extend(offences(path.read_text(), path.name))
    assert found == []
