"""Substitution helpers that only the tests use.

`compose_subst` states that substitution is functorial; `match_many`
checks that a ground unifier factors through the most general one.
"""

from treegroups.terms import App, Var, apply_subst
from treegroups.unify import match


def compose_subst(first: dict, second: dict) -> dict:
    """The substitution "apply `first`, then `second`"."""
    out = {name: apply_subst(term, second) for name, term in first.items()}
    for name, term in second.items():
        out.setdefault(name, term)
    return {name: term for name, term in out.items() if term != Var(name)}


def match_many(pairs) -> dict | None:
    """Match several (pattern, subject) pairs under one shared binding: one
    node holding every pattern against one node holding every subject."""
    patterns = App("pairs", tuple(pattern for pattern, _ in pairs))
    return match(patterns, App("pairs", tuple(subject for _, subject in pairs)))
