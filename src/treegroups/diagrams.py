"""n-ary trees, tree-pair diagrams, and their groups.

A tree is a nested tuple: the empty tuple is a leaf, an internal node is a
tuple of exactly n subtrees (the arity travels alongside, not in the value).
A diagram is a triple (domain tree, range tree, perm) with equal leaf
counts, perm sending the i-th domain leaf (in left-to-right order) to the
perm[i]-th range leaf.  Diagrams modulo common expansion form a group; the
canonical representative is the reduced diagram.  Letters and whole
diagrams act on a mutable `TreePair`, which gives every domain node an id
and holds the range as nested lists of leaf ids, by substitution at nodes
of that range, careting leaves where they need nodes: `multiply` lets the
second factor act on the first, `coherence.eval_diagram` each letter on
the identity.  `TreePair.freeze` reads both trees with one walk, `_read`,
and reduces as it reads the range, collapsing each range node whose leaf
ids are the children of one domain caret; `reduce` is a `freeze` of the
diagram's own pair, which keeps the domain tuple when nothing collapses.
Every walk is a plain loop in a module function or method, one Python
frame per internal node: a leaf child is handled in its parent's loop, and
no walk is a closure or calls itself through `map` or a generator.

`to_diagram` maps a linear seed operator to a reduced diagram: the two term
shapes plus the leaf permutation induced by the variable correspondence.
"""

from __future__ import annotations

import itertools

from .terms import Term, TermError, Value, Var, is_linear_pair, set_field, underlying_list
from .operators import EMPTY, Operator

LEAF = ()


def _checked_leaf_count(tree, n: int) -> int:
    """Leaf count of a tree, raising unless every node is a tuple with 0 or
    n children."""
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        if not isinstance(node, tuple):
            raise TermError(f"tree node of type {type(node).__name__}, not a tuple")
        if not node:
            count += 1
        elif len(node) == n:
            stack.extend(node)
        else:
            raise TermError(f"node with {len(node)} children in an arity-{n} tree")
    return count


def _check_arity(n) -> None:
    if type(n) is not int or n < 2:
        raise TermError(f"diagram arity must be an integer >= 2, not {n!r}")


def _check_perm(m: int, k: int, perm) -> None:
    """Raise unless the trees' leaf counts m and k agree and perm permutes 1..m."""
    if k != m:
        raise TermError("domain and range leaf counts differ")
    if type(perm) is not tuple or not all(type(y) is int for y in perm):
        raise TermError("perm must be a tuple of integers")
    if sorted(perm) != list(range(1, m + 1)):
        raise TermError("perm is not a bijection on the leaf indices")


class TreeDiagram(Value):
    """A tree pair with a leaf bijection; perm is a 1-based index tuple."""

    _fields = ("n", "domain", "range", "perm")

    def __init__(self, n: int, domain: tuple, range: tuple, perm: tuple):
        _check_arity(n)
        _check_perm(_checked_leaf_count(domain, n), _checked_leaf_count(range, n), perm)
        set_field(self, "n", n)
        set_field(self, "domain", domain)
        set_field(self, "range", range)
        set_field(self, "perm", perm)


def _trusted(n: int, domain, range_, perm) -> TreeDiagram:
    """A diagram from parts this module built or checked itself, without the
    checks of `__init__`; the public constructor keeps them."""
    d = object.__new__(TreeDiagram)
    vars(d).update(n=n, domain=domain, range=range_, perm=perm)
    return d


def identity_diagram(n: int) -> TreeDiagram:
    """(leaf, leaf, id), for an integer n >= 2."""
    _check_arity(n)
    return _trusted(n, LEAF, LEAF, (1,))


def _inverse(perm) -> tuple:
    out = [0] * len(perm)
    for i, y in enumerate(perm, start=1):
        out[y - 1] = i
    return tuple(out)


def reduce(d: TreeDiagram) -> TreeDiagram:
    """The reduced diagram: `TreePair.freeze` collapses matched carets,
    bottom-up along the range.  It is unique, so the order does not matter;
    the tests check it against every order and a partner-address walk."""
    return TreePair(d).freeze()


def invert_diagram(d: TreeDiagram) -> TreeDiagram:
    return reduce(_trusted(d.n, d.range, d.domain, _inverse(d.perm)))


def _graft(tree, items, perm) -> list:
    """`[tree]` as nested lists, its leaf perm[j] replaced by items[j]: the
    holder of a range, whose root is its one child."""
    placed = [None] * len(perm)
    for item, k in zip(items, perm):
        placed[k - 1] = item
    grafts = iter(placed)
    return [_place(tree, grafts) if tree else next(grafts)]


def _place(node, grafts) -> list:
    """The internal `node` as nested lists, its leaves filled from `grafts`
    in order."""
    out = []
    for kid in node:
        out.append(_place(kid, grafts) if kid else next(grafts))
    return out


def _label(node, split: dict, fresh, leaves) -> int:
    """The internal domain node's id, its children's ids put in `split`."""
    caret = next(fresh)
    kids = split[caret] = []
    for kid in node:
        kids.append(_label(kid, split, fresh, leaves) if kid else next(leaves))
    return caret


def _read(node, split: dict, head: dict, order: list):
    """The tuple of a range node (a list) or of a domain id (its children in
    `split`); any other node is a leaf, its id appended to `order`.  Leaf
    children are read in the loop, without a call.  A node whose children
    are all leaves collapses when their ids are, in order, the children of
    the caret `head` names by its first child: it becomes a leaf with the
    caret's id, and the caret leaves `split`."""
    kids = node if type(node) is list else split.get(node)
    if kids is None:
        order.append(node)
        return LEAF
    out = []
    for kid in kids:
        if type(kid) is list or kid in split:
            out.append(_read(kid, split, head, order))
        else:
            order.append(kid)
            out.append(LEAF)
    if not any(out):
        last = order[-len(out) :]
        caret = head.get(last[0])
        if split.get(caret) == last:
            del split[caret]
            order[-len(out) :] = [caret]
            return LEAF
    return tuple(out)


class TreePair:
    """A tree pair that letters and diagrams act on in place.

    Every node of the pair has an integer id.  The domain is `root` and
    `split`, which maps each internal domain node to the ids of its n
    children; a diagram's domain leaf j (from 0) has id j.  The range is
    nested lists of the domain's leaf ids, held at `range[0]` so that its
    root is a child like any other; the leaf bijection travels on the ids.
    Where an action needs a node, a range leaf is careted into n fresh ids
    and the caret recorded in `split`; the domain grows by the same caret,
    so the pair is the most general one the actions so far apply to.
    `domain` and `carets` keep the diagram's domain tuple and caret count,
    for `freeze` to return that tuple when nothing changed the domain.
    """

    def __init__(self, d: TreeDiagram):
        self.n = d.n
        self.range = _graft(d.range, range(len(d.perm)), d.perm)
        self.split = {}
        self.fresh = itertools.count(len(d.perm))
        self.root = 0
        if d.domain:
            self.root = _label(d.domain, self.split, self.fresh, itertools.count())
        self.domain, self.carets = d.domain, len(self.split)

    def _internal(self, parent: list, k: int) -> list:
        """parent[k], careted first if it is a leaf."""
        leaf = parent[k]
        if type(leaf) is not int:
            return leaf
        node = parent[k] = [next(self.fresh) for _ in range(self.n)]
        self.split[leaf] = node[:]
        return node

    def _node(self, address) -> list:
        """The range node at `address`; a leaf on the way there, or at it,
        is careted first."""
        parent, k = self.range, 0
        for step in address:
            node = parent[k]
            if type(node) is not list:
                node = self._internal(parent, k)
            parent, k = node, step - 1
        node = parent[k]
        return node if type(node) is list else self._internal(parent, k)

    def regroup(self, address, i: int, sign: int) -> None:
        """`a<i>` at `address` moves the nest at child i+1 one position
        left; `A<i>` moves the nest at child i one position right."""
        node = self._node(address)
        if sign > 0:
            nest = self._internal(node, i)
            node[i - 1 : i + 1] = [[node[i - 1]] + nest[:-1], nest[-1]]
        else:
            nest = self._internal(node, i - 1)
            node[i - 1 : i + 1] = [nest[0], nest[1:] + [node[i]]]

    def swap(self, address, i: int) -> None:
        """`s<i>` at `address` swaps children i and i+1."""
        node = self._node(address)
        node[i - 1], node[i] = node[i], node[i - 1]

    def act(self, d: TreeDiagram) -> None:
        """Follow the pair by `d`: match d's domain, as the one child of a
        node, against the range's holder, careting where it needs a node,
        and graft the subtrees hanging below its leaves into d's range by
        d's perm."""
        if d.n != self.n:
            raise TermError("cannot multiply diagrams of different arity")
        hanging = []
        self._match((d.domain,), self.range, hanging)
        self.range = _graft(d.range, hanging, d.perm)

    def _match(self, node, below: list, hanging: list) -> None:
        """Match the internal `node` against the range node `below`,
        careting where it needs a node; the subtrees at its leaves go to
        `hanging`, left to right."""
        for k, kid in enumerate(node):
            if kid:
                self._match(kid, self._internal(below, k), hanging)
            else:
                hanging.append(below[k])

    def is_trivial(self) -> bool:
        """True iff the pair represents the identity: every expansion of
        (leaf, leaf, id) is (T, T, id), so one walk pairs each domain id,
        expanded by `split`, with its range node and stops at the first
        difference in shape or leaf id.  It builds and changes nothing."""
        split = self.split
        stack = [(self.root, self.range[0])]
        while stack:
            node, image = stack.pop()
            if node in split and type(image) is list:
                stack.extend(zip(split[node], image))
            elif node != image:
                return False
        return True

    def freeze(self) -> TreeDiagram:
        """The reduced diagram of the pair.  This ends the pair: it deletes
        the carets it collapses from `split`.

        One post-order walk, `_read`, builds each tree and its leaf order.
        On the range it collapses each node whose leaf ids are the children
        of one caret in `split`.  Whether a node collapses depends only on
        what lies below it, so one walk reaches the fixpoint.  If no caret
        was added since `__init__` and none collapsed, the domain is the
        diagram's own tuple, its leaves the ids 0..m-1 in order, and the
        perm is read off `order`.  Otherwise the domain is read off `split`
        from `root`, with no caret to collapse into, and the perm off the
        ids.
        """
        split, order = self.split, []
        head = {kids[0]: caret for caret, kids in split.items()}
        range_ = _read(self.range[0], split, head, order)
        if len(split) == len(head) == self.carets:
            perm = [0] * len(order)
            for k, leaf in enumerate(order, start=1):
                perm[leaf] = k
            return _trusted(self.n, self.domain, range_, tuple(perm))
        position = {leaf: k for k, leaf in enumerate(order, start=1)}
        domain = _read(self.root, split, {}, order)
        perm = tuple([position[leaf] for leaf in order[len(position):]])
        return _trusted(self.n, domain, range_, perm)


def multiply(d1: TreeDiagram, d2: TreeDiagram) -> TreeDiagram:
    """The diagram "d1 followed by d2", reduced: d2 acts on the pair of d1."""
    pair = TreePair(d1)
    pair.act(d2)
    return pair.freeze()


def is_order_preserving(d: TreeDiagram) -> bool:
    """True iff the leaf bijection preserves left-to-right order."""
    return d.perm == tuple(range(1, len(d.perm) + 1))


# ---------------------------------------------------------------------------
# From operators to diagrams


def tree_of_term(t: Term):
    """Forget leaf labels, keep the shape."""
    if isinstance(t, Var):
        return LEAF
    out = []
    for kid in t.children:
        out.append(LEAF if isinstance(kid, Var) else tree_of_term(kid))
    return tuple(out)


def to_diagram(op: Operator, n: int) -> TreeDiagram:
    """The reduced diagram of a linear seed operator.

    Leaf i of the source shape maps to the position of the same variable in
    the target's leaf word.  Rejects the empty operator and nonlinear seeds.
    """
    if op is EMPTY:
        raise TermError("the empty operator has no diagram")
    if not is_linear_pair(op.source, op.target):
        raise TermError("diagrams need balanced linear seeds")
    src_word = underlying_list(op.source)
    tgt_pos = {name: k for k, name in enumerate(underlying_list(op.target), start=1)}
    perm = tuple(tgt_pos[name] for name in src_word)
    return reduce(
        TreeDiagram(n, tree_of_term(op.source), tree_of_term(op.target), perm)
    )


# ---------------------------------------------------------------------------
# Exchange formats


def _tree_to_json(tree):
    if not tree:
        return 0
    out = []
    for kid in tree:
        out.append(_tree_to_json(kid) if kid else 0)
    return out


def _tree_from_json(value, n: int, nodes) -> tuple:
    """A JSON tree, read, checked for n children per node and its nodes
    counted by `nodes` in one walk; a leaf child is read in its parent's loop."""
    if value == 0 and type(value) is int:
        return LEAF
    if not isinstance(value, list):
        raise TermError(f"a JSON tree is 0 or a list of trees, not {type(value).__name__}")
    if not value:
        raise TermError("a JSON tree is 0 or a non-empty list of trees, not []")
    if len(value) != n:
        raise TermError(f"node with {len(value)} children in an arity-{n} tree")
    next(nodes)
    out = []
    for kid in value:
        out.append(LEAF if kid == 0 and type(kid) is int else _tree_from_json(kid, n, nodes))
    return tuple(out)


def to_json_dict(d: TreeDiagram) -> dict:
    return {
        "n": d.n,
        "domain": _tree_to_json(d.domain),
        "range": _tree_to_json(d.range),
        "perm": list(d.perm),
    }


def to_json(d: TreeDiagram) -> str:
    import json  # here, so that importing the library does not import json

    return json.dumps(to_json_dict(d), separators=(",", ":"))


def from_json_dict(data: dict) -> TreeDiagram:
    """The diagram of a JSON object; malformed input raises TermError."""
    if not isinstance(data, dict) or not {"n", "domain", "range", "perm"} <= data.keys():
        raise TermError("a JSON diagram needs the keys n, domain, range and perm")
    n, perm = data["n"], data["perm"]
    if type(n) is not int or not isinstance(perm, list):
        raise TermError("a JSON diagram needs an integer n and a list perm")
    _check_arity(n)
    nodes, perm = (itertools.count(), itertools.count()), tuple(perm)
    try:
        domain = _tree_from_json(data["domain"], n, nodes[0])
        range_ = _tree_from_json(data["range"], n, nodes[1])
    except RecursionError:
        raise TermError("a JSON diagram's tree is nested too deeply") from None
    # a tree whose c nodes each have n children has 1 + (n - 1) c leaves
    _check_perm(*[1 + (n - 1) * next(count) for count in nodes], perm)
    return _trusted(n, domain, range_, perm)


def _dot_tree(node, me: str, lines: list, leaf_ids: dict) -> None:
    """Emit the subtree at Graphviz node `me`; record leaf index -> node id."""
    if not node:
        leaf_ids[len(leaf_ids) + 1] = me
        lines.append(f'    {me} [shape=box, label="{len(leaf_ids)}"];')
        return
    lines.append(f"    {me} [shape=point];")
    for k, child in enumerate(node, start=1):
        _dot_tree(child, f"{me}_{k}", lines, leaf_ids)
        lines.append(f"    {me} -- {me}_{k};")


def to_dot(d: TreeDiagram) -> str:
    """Graphviz text: both trees, dashed edges joining paired leaves."""
    lines = ["graph tree_diagram {"]
    lines.append("  subgraph cluster_domain {")
    lines.append('    label="domain";')
    dom_ids, ran_ids = {}, {}
    _dot_tree(d.domain, "d", lines, dom_ids)
    lines.append("  }")
    lines.append("  subgraph cluster_range {")
    lines.append('    label="range";')
    _dot_tree(d.range, "r", lines, ran_ids)
    lines.append("  }")
    for i in range(1, len(d.perm) + 1):
        lines.append(
            f"  {dom_ids[i]} -- {ran_ids[d.perm[i - 1]]} [style=dashed, constraint=false];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
