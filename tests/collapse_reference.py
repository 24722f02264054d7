"""Reference reductions for the tests.

`reducible_pairs` lists every collapsible pair of a diagram by leaf index,
`collapse` collapses one of them, and `all_reduction_endpoints` follows
every collapse order to its end.  That is exponential, so it serves small
diagrams only.  `partner_reduce` reaches the reduced diagram in one walk
over partner range addresses, which scales to large ones.  Both must agree
with `treegroups.diagrams.reduce`, which collapses on node ids inside
`TreePair.freeze`'s walk over the range.
"""

from treegroups.diagrams import LEAF, TreeDiagram

from diagram_reference import caret, is_leaf, leaves, replace_node


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


def _tree_of_leaves(addresses, n: int):
    """The arity-n tree whose leaf addresses, in order, are `addresses`:
    a prefix is a leaf exactly when it is the next address."""
    position = 0

    def build(prefix):
        nonlocal position
        if addresses[position] == prefix:
            position += 1
            return LEAF
        return tuple(map(build, [prefix + (k,) for k in range(1, n + 1)]))

    return build(())


def partner_reduce(d: TreeDiagram) -> TreeDiagram:
    """The reduced diagram by partner addresses.

    Each domain leaf carries its partner's range address.  A domain node
    whose children are all leaves carrying p.1 ... p.n, in order, collapses
    with the range caret at p into one leaf carrying p; the range leaves
    p.k prove that caret exists.  Addresses do not shift when a caret
    elsewhere collapses, so one post-order walk reaches the fixpoint.  The
    range is rebuilt once from the surviving addresses; a reduced `d` comes
    back as it is.
    """
    n = d.n
    range_leaves = leaves(d.range)
    partners = iter([range_leaves[k - 1] for k in d.perm])
    carried = []  # partner addresses of the walked domain leaves, in order
    full_caret = caret(n)

    def walk(node):
        if is_leaf(node):
            carried.append(next(partners))
            return LEAF
        kids = tuple(map(walk, node))
        if kids == full_caret:
            p = carried[-n][:-1]
            if carried[-n:] == [p + (k,) for k in range(1, n + 1)]:
                del carried[-n:]
                carried.append(p)
                return LEAF
        return kids

    domain = walk(d.domain)
    if len(carried) == len(d.perm):
        return d
    order = sorted(carried)
    rank = {address: i for i, address in enumerate(order, start=1)}
    return TreeDiagram(
        n, domain, _tree_of_leaves(order, n), tuple([rank[a] for a in carried])
    )
