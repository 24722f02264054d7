"""Reference seed evaluation for the tests: substitute at every step.

`unify_shared` re-applies the whole substitution to both terms of each pair
it pops and keeps the solved set idempotent as it grows; `mgu` renames the
two sides apart by prefixing their variables and unifies them in one
namespace; `eval_word` composes a word's seeds as a left fold.  The library
reaches the same results by another route (a triangular solver on tagged
sides, seeds composed pairwise), and the tests require the two to agree,
down to the key order of the returned substitutions.

`seed_reduce` is the group-level normal form of a seed, computed on terms
alone: the tests compare it with the reduced tree diagram.  `leaf_addresses`
serves it and the term tests; the library has no use for it.
"""

from treegroups.operators import (
    EMPTY,
    Seed,
    canonical,
    identity_operator,
    translated_seed,
)
from treegroups.terms import (
    App,
    TermError,
    Var,
    apply_subst,
    is_linear_pair,
    replace,
    subterm,
    subterms,
    support,
    underlying_list,
    variables_in_order,
)
from treegroups.unify import UnifierPair

# Internal namespaces used while the two sides share one variable space.
# The marker byte cannot appear in parsed identifiers.
_L = "l\x1f"
_R = "r\x1f"


def occurs(name, t) -> bool:
    if isinstance(t, Var):
        return t.name == name
    return any(occurs(name, c) for c in t.children)


def unify_shared(t1, t2):
    """Unify two terms over a shared variable namespace.

    Returns an idempotent most general unifier, or None.  Includes the
    occurs check, so e.g. x does not unify with a term properly containing x.
    """
    subst: dict = {}
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        a = apply_subst(a, subst)
        b = apply_subst(b, subst)
        if a == b:
            continue
        if isinstance(a, App) and isinstance(b, App):
            if a.symbol != b.symbol or len(a.children) != len(b.children):
                return None
            stack.extend(zip(a.children, b.children))
            continue
        if not isinstance(a, Var):
            a, b = b, a
        if occurs(a.name, b):
            return None
        binding = {a.name: b}
        subst = {k: apply_subst(v, binding) for k, v in subst.items()}
        subst[a.name] = b
    return subst


def _prefix_vars(t, prefix: str):
    if isinstance(t, Var):
        return Var(prefix + t.name)
    return App(t.symbol, tuple(_prefix_vars(c, prefix) for c in t.children))


def mgu(t1, s2):
    """Most general unifier of t1 and s2 after renaming the sides apart.

    Returns UnifierPair(phi, psi) with t1^phi == s2^psi, or None when the
    pair is not unifiable.  Any other unifier pair factors through the
    returned one.  Both substitutions are idempotent: residual variables of
    the unified term are named deterministically, preferring the original
    names but never reusing a name that either side binds.
    """
    a = _prefix_vars(t1, _L)
    b = _prefix_vars(s2, _R)
    sigma = unify_shared(a, b)
    if sigma is None:
        return None
    common = apply_subst(a, sigma)

    def solved(prefix: str, name: str):
        return apply_subst(Var(prefix + name), sigma)

    # Residual variables of the unified term get deterministic output names.
    # A residual keeps its original spelling only when every side that owns
    # a variable of that spelling resolves it to this very residual;
    # otherwise it takes a suffixed name clear of all input names.  This
    # keeps both returned substitutions idempotent: no name occurring in a
    # range is ever nontrivially bound.
    names_left, names_right = support(t1), support(s2)

    def keeps_base(internal: str, base: str) -> bool:
        for prefix, names in ((_L, names_left), (_R, names_right)):
            if base in names and solved(prefix, base) != Var(internal):
                return False
        return True

    remap: dict = {}
    used: set = set()
    for internal in variables_in_order(common):
        base = internal[len(_L) :]
        if base not in used and keeps_base(internal, base):
            candidate = base
        else:
            counter = 2
            candidate = f"{base}_{counter}"
            while candidate in used or candidate in names_left or candidate in names_right:
                counter += 1
                candidate = f"{base}_{counter}"
        used.add(candidate)
        remap[internal] = Var(candidate)

    def out_subst(prefix: str, source) -> dict:
        result = {}
        for name in variables_in_order(source):
            term = apply_subst(solved(prefix, name), remap)
            if term != Var(name):
                result[name] = term
        return result

    return UnifierPair(out_subst(_L, t1), out_subst(_R, s2))


def compose(op1, op2):
    """`treegroups.operators.compose` with the reference `mgu`."""
    if op1 is EMPTY or op2 is EMPTY:
        return EMPTY
    pair = mgu(op1.target, op2.source)
    if pair is None:
        return EMPTY
    return canonical(
        Seed(apply_subst(op1.source, pair.left), apply_subst(op2.target, pair.right))
    )


def eval_word(trs, signature):
    """Left-to-right composite of translated rules; [] gives the identity."""
    op = identity_operator()
    for tr in trs:
        op = compose(op, translated_seed(tr, signature))
    return op


def leaf_addresses(t) -> list:
    """Addresses of all variable leaves, left to right."""
    return [a for a, u in subterms(t) if isinstance(u, Var)]


def _node_addresses(t, prefix=()):
    """Every node address of t, in pre-order."""
    yield prefix
    if isinstance(t, App):
        for k, c in enumerate(t.children, start=1):
            yield from _node_addresses(c, prefix + (k,))


def seed_reduce(op):
    """Cancel matched tuple blocks from a linear seed.

    Whenever n consecutive source leaves are the children of one node and
    their images under the leaf correspondence are n consecutive target
    leaves, in order, forming the children of one target node, both nodes
    collapse to a single shared variable.  The fixpoint is the seed of the
    group element: idempotents collapse to the identity seed.  This is a
    term-level computation, independent of the tree-diagram machinery.
    """
    if op is EMPTY:
        return EMPTY
    if not is_linear_pair(op.source, op.target):
        raise TermError("seed_reduce needs a linear seed")
    source, target = op.source, op.target
    while True:
        if isinstance(source, Var):
            break
        src_leaves = leaf_addresses(source)
        src_word = underlying_list(source)
        tgt_leaves = leaf_addresses(target)
        tgt_word = underlying_list(target)
        tgt_pos = {name: k for k, name in enumerate(tgt_word)}
        done = True
        for addr in _node_addresses(source):
            node = subterm(source, addr)
            if isinstance(node, Var) or not all(
                isinstance(c, Var) for c in node.children
            ):
                continue
            n = len(node.children)
            j = src_leaves.index(addr + (1,))
            positions = [tgt_pos[src_word[j + k]] for k in range(n)]
            if positions != list(range(positions[0], positions[0] + n)):
                continue
            first = tgt_leaves[positions[0]]
            if not first or first[-1] != 1:
                continue
            parent = first[:-1]
            tnode = subterm(target, parent)
            if len(tnode.children) != n or not all(
                isinstance(c, Var) for c in tnode.children
            ):
                continue
            merged = Var(src_word[j])
            source = replace(source, addr, merged)
            target = replace(target, parent, merged)
            done = False
            break
        if done:
            break
    return canonical(Seed(source, target))
