"""Congruence modulo a theory, decided without diagrams.

`congruent` compares leaf words for the regrouping theory and leaf
multisets for its symmetric extension, and runs a bounded bidirectional
rewrite search for a generic theory.  `one_step_rewrites` lists the terms
one translated rule away.
"""

from collections import Counter

from treegroups.operators import Theory, rewrite_at
from treegroups.terms import Term, subterms, underlying_list


def one_step_rewrites(t: Term, theory: Theory):
    """All terms reachable by one translated rule application (either
    direction, any address)."""
    for address, _ in subterms(t):
        for rule in theory.rules:
            for forward in (True, False):
                result = rewrite_at(t, rule, address, forward)
                if result is not None:
                    yield result


def congruent(theory: Theory, t: Term, u: Term, budget: int = 20000):
    """Decide whether t and u are equal modulo the theory.

    For the tuple theories the exact oracles apply: equality of leaf words
    for the regrouping theory, equality of leaf multisets for the symmetric
    one.  Generic theories get a bounded bidirectional search; the return
    value is then True, False (frontier exhausted), or None when the node
    budget ran out before an answer.
    """
    if theory.n is not None:
        if theory.name == "c":
            return underlying_list(t) == underlying_list(u)
        return Counter(underlying_list(t)) == Counter(underlying_list(u))

    if t == u:
        return True
    left = {t}
    right = {u}
    # ordered frontiers keep the search deterministic run to run
    frontier_left, frontier_right = [t], [u]
    visited = 2
    while frontier_left or frontier_right:
        expand_left = bool(frontier_left) and (
            not frontier_right or len(frontier_left) <= len(frontier_right)
        )
        frontier = frontier_left if expand_left else frontier_right
        own, other = (left, right) if expand_left else (right, left)
        new: list = []
        for term in frontier:
            for nxt in one_step_rewrites(term, theory):
                if nxt in other:
                    return True
                if nxt not in own:
                    own.add(nxt)
                    new.append(nxt)
                    visited += 1
                    if visited > budget:
                        return None
        if expand_left:
            frontier_left = new
        else:
            frontier_right = new
    return False
