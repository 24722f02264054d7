"""Tree and diagram helpers for the tests.

`caret` is the tree of one internal node, `leaves` lists a tree's leaf
addresses, `leaf_count` counts them, `expand` carets one leaf,
`expand_diagram` makes a simple expansion of a diagram, `random_diagram`
draws a diagram from random carets and a random perm, and
`random_reduced_diagram` reduces one.  `is_leaf` and `diagram_power` are
small helpers the library itself does not need.
`expand_diagram` works by leaf-index arithmetic, not by the `TreePair` that
`treegroups.diagrams.multiply` acts on, so the tests that feed it unreduced
factors check the product against a different route.

`moore_relation_lines` checks Moore's relations by chaining `multiply` over
the twist diagrams; `coherence.check_moore` decides them as words instead.
"""

from treegroups.coherence import S, eval_diagram
from treegroups.diagrams import (
    LEAF,
    TreeDiagram,
    identity_diagram,
    invert_diagram,
    multiply,
    reduce,
)
from treegroups.terms import TermError


def is_leaf(tree) -> bool:
    return tree == ()


def diagram_power(d: TreeDiagram, exponent: int) -> TreeDiagram:
    if exponent < 0:
        return diagram_power(invert_diagram(d), -exponent)
    out = identity_diagram(d.n)
    for _ in range(exponent):
        out = multiply(out, d)
    return out


def caret(n: int):
    return (LEAF,) * n


def leaves(tree) -> tuple:
    """Leaf addresses in lexicographic (left-to-right) order."""
    out = []
    _leaf_addresses(tree, (), out)
    return tuple(out)


def _leaf_addresses(node, prefix: tuple, out: list) -> None:
    if is_leaf(node):
        out.append(prefix)
        return
    for k, child in enumerate(node, start=1):
        _leaf_addresses(child, prefix + (k,), out)


def leaf_count(tree) -> int:
    if is_leaf(tree):
        return 1
    return sum(leaf_count(child) for child in tree)


def replace_node(tree, address, new):
    if not address:
        return new
    k = address[0]
    kids = list(tree)
    kids[k - 1] = replace_node(kids[k - 1], address[1:], new)
    return tuple(kids)


def expand(tree, leaf_index: int, n: int):
    """Replace the leaf with the given 1-based index by an n-caret."""
    addrs = leaves(tree)
    if not 1 <= leaf_index <= len(addrs):
        raise TermError(f"leaf index {leaf_index} out of range")
    return replace_node(tree, addrs[leaf_index - 1], caret(n))


def expand_diagram(d: TreeDiagram, leaf_index: int) -> TreeDiagram:
    """Simple expansion: caret domain leaf i and its partner, range leaf
    k = perm[i-1], and pair the n new leaves in child order.  Range indices
    after k shift by n-1."""
    n, i = d.n, leaf_index
    domain = expand(d.domain, i, n)
    k = d.perm[i - 1]
    range_ = expand(d.range, k, n)
    shifted = [y if y < k else y + n - 1 for y in d.perm]
    perm = shifted[: i - 1] + list(range(k, k + n)) + shifted[i:]
    return TreeDiagram(n, domain, range_, tuple(perm))


def random_diagram(n: int, rng, max_carets: int = 5) -> TreeDiagram:
    k = rng.randint(0, max_carets)
    t1, t2 = LEAF, LEAF
    for _ in range(k):
        t1 = expand(t1, rng.randint(1, leaf_count(t1)), n)
        t2 = expand(t2, rng.randint(1, leaf_count(t2)), n)
    perm = list(range(1, k * (n - 1) + 2))
    rng.shuffle(perm)
    return TreeDiagram(n, t1, t2, tuple(perm))


def random_reduced_diagram(n: int, rng, max_carets: int = 5) -> TreeDiagram:
    return reduce(random_diagram(n, rng, max_carets))


def moore_relation_lines(n: int) -> list:
    """The relation lines of `check_moore(n)`, each relation a product of
    twist diagrams compared with the identity."""
    one = identity_diagram(n)
    gens = {i: eval_diagram((S(i),), n, "sc") for i in range(1, n)}
    checks = []  # (label, ok)
    for i in range(1, n):
        checks.append((f"T{i}^2", multiply(gens[i], gens[i]) == one))
    for i in range(1, n - 1):
        prod = multiply(gens[i], gens[i + 1])
        checks.append(
            (f"(T{i}T{i + 1})^3", multiply(prod, multiply(prod, prod)) == one)
        )
    for i in range(1, n):
        for k in range(i + 2, n):
            prod = multiply(gens[i], gens[k])
            checks.append((f"(T{i}T{k})^2", multiply(prod, prod) == one))
    return [f"moore n={n} {label} {'PASS' if ok else 'FAIL'}" for label, ok in checks]
