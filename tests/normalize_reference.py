"""Reference normalization for the tests: recurse down the spine, then
replay every step to measure it.

`normalize_to_lmb` rewrites each node with `apply_assoc` until no child
past the first is an application, then recurses into the first child, so
it takes one Python frame per spine node.  `trace` replays the steps one
at a time and measures each rank drop with `step_rank_drop`, which reads
the released child's leaves afresh, so a right comb costs time quadratic
in its length.  The library computes the steps and their drops in one loop
(`treegroups.terms.normal_form_steps`); the tests require the two to agree.
"""

from treegroups.terms import (
    AddressError,
    App,
    Term,
    TermError,
    Var,
    apply_assoc,
    rank,
    subterm,
    underlying_list,
)


def step_rank_drop(t: Term, i: int, address: tuple) -> int:
    """Rank decrease of applying rule i at `address` in t: (n-1) times the
    length of the nest's last child, which the step releases.  Refuses
    what `apply_assoc` refuses, with the same exception and message."""
    node = subterm(t, address)
    if not isinstance(node, App):
        raise AddressError(f"no application node at {address}")
    n = len(node.children)
    if not 1 <= i <= n - 1:
        raise TermError(f"rule index {i} out of range for arity {n}")
    nest = node.children[i]
    if not isinstance(nest, App) or len(nest.children) != n:
        raise TermError(f"rule {i} does not apply at {address}")
    return (n - 1) * len(underlying_list(nest.children[-1]))


def normalize_to_lmb(t: Term, n: int):
    """(normal form, steps): the greatest non-variable child position
    first, then the first child."""
    steps: list = []
    return _normalize(t, (), n, steps), steps


def _normalize(u: Term, base: tuple, n: int, steps: list) -> Term:
    if isinstance(u, Var):
        return u
    while True:
        kids = u.children
        pos = [k for k in range(2, n + 1) if isinstance(kids[k - 1], App)]
        if not pos:
            break
        i = max(pos) - 1
        steps.append((i, base))
        u = apply_assoc(u, i, ())
    first = _normalize(u.children[0], base + (1,), n, steps)
    return App(u.symbol, (first,) + u.children[1:])


def trace(t: Term, n: int):
    """(normal form, steps, ranks): the ranks of t and of the term after
    each step, the steps replayed with `apply_assoc`.  The replay must end
    at the normal form."""
    normal, steps = normalize_to_lmb(t, n)
    ranks = [rank(t)]
    current = t
    for i, address in steps:
        ranks.append(ranks[-1] - step_rank_drop(current, i, address))
        current = apply_assoc(current, i, address)
    assert current == normal
    return normal, steps, ranks
