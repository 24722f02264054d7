"""Reference reduction for the tests: one caret pair collapsed at a time.

`reducible_pairs` lists every collapsible pair of a diagram by leaf index,
`collapse` collapses one of them, and `all_reduction_endpoints` follows
every collapse order to its end.  On small diagrams the endpoint must be
unique and equal to `treegroups.diagrams.reduce`, which reaches it by a
different route (one walk over partner addresses).
"""

from treegroups.diagrams import LEAF, TreeDiagram, is_leaf

from diagram_reference import replace_node


def _carets(tree) -> list:
    """(address, first leaf index 1-based) for internal nodes whose children
    are all leaves, ordered by leaf index."""
    out = []

    def walk(node, prefix, first):
        if is_leaf(node):
            return 1
        count = 0
        for k, child in enumerate(node, start=1):
            count += walk(child, prefix + (k,), first + count)
        if all(is_leaf(c) for c in node):
            out.append((prefix, first))
        return count

    walk(tree, (), 1)
    return sorted(out, key=lambda p: p[1])


def reducible_pairs(d: TreeDiagram) -> list:
    """Collapsible caret pairs as (domain address, domain first-leaf index,
    range parent address), ordered by domain leaf index."""
    n = d.n
    range_carets = {first: addr for addr, first in _carets(d.range)}
    out = []
    for addr, j in _carets(d.domain):
        k = d.perm[j - 1]
        if k in range_carets and all(d.perm[j - 1 + i] == k + i for i in range(1, n)):
            out.append((addr, j, range_carets[k]))
    return out


def collapse(d: TreeDiagram, dom_addr, j: int, range_parent) -> TreeDiagram:
    """`d` with one pair from `reducible_pairs` collapsed."""
    n = d.n
    m = len(d.perm)
    k = d.perm[j - 1]
    domain = replace_node(d.domain, dom_addr, LEAF)
    range_ = replace_node(d.range, range_parent, LEAF)

    def shrink(y: int) -> int:
        return y if y < k else y - (n - 1)

    perm = []
    for i in range(1, m - n + 2):
        if i < j:
            perm.append(shrink(d.perm[i - 1]))
        elif i == j:
            perm.append(k)
        else:
            perm.append(shrink(d.perm[i + n - 2]))
    return TreeDiagram(n, domain, range_, tuple(perm))


def all_reduction_endpoints(d: TreeDiagram) -> frozenset:
    """Endpoints of every collapse order, memoized over intermediate states."""
    seen = {}

    def explore(x):
        if x in seen:
            return seen[x]
        pairs = reducible_pairs(x)
        if not pairs:
            out = frozenset((x,))
        else:
            out = frozenset()
            for pair in pairs:
                out |= explore(collapse(x, *pair))
        seen[x] = out
        return out

    return explore(d)
