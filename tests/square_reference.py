"""Reference fork closing for the regrouping theory, for the tests.

`assoc_redexes` lists where a forward regrouping applies by looking for a
nested tuple to the right of a child, and `fill_square` closes a fork of
two such letters by index arithmetic that holds only for regroup rules:
functoriality, adjacent associativity, the pentagon, and naturality with
the deep letter moved by hand.  The library reads both off the theory's
rules instead (`coherence.positive_steps` and `coherence.fill_square`);
the two must agree on every fork.

`naturality_instances` states naturality once per variable of a rule, from
the variable's addresses in the rule's two sides (`variable_addresses`); the
library reads the same squares off one rule target walk in `fill_square`.
"""

from treegroups.coherence import (
    A,
    Generator,
    RelationInstance,
    adjacent_assoc,
    format_generator,
    pentagon,
    theory_for,
)
from treegroups.operators import Theory
from treegroups.terms import (
    App,
    Term,
    TermError,
    Var,
    orthogonal,
    subterm,
    subterms,
    variables_in_order,
)


def variable_addresses(t: Term, name: str) -> list:
    """Addresses of every occurrence of the named variable, left to right."""
    return [a for a, u in subterms(t) if u == Var(name)]


def naturality_instances(
    rule_gen: Generator, inner: Generator, alpha: tuple, delta: tuple, theory: Theory
) -> list:
    """Naturality of a rule letter against an inner letter, one instance per
    variable of the rule.

    For a variable occurring at addresses b_1..b_p in the rule's source and
    g_1..g_q in its target:

        rule@alpha . inner@(alpha g_1 delta) ... inner@(alpha g_q delta)
      = inner@(alpha b_1 delta) ... inner@(alpha b_p delta) . rule@alpha

    The inner letter's own address field is ignored.
    """
    rule = theory.rule(f"{rule_gen.kind}{rule_gen.index}")
    src, tgt = (rule.source, rule.target) if rule_gen.sign > 0 else (rule.target, rule.source)
    outer = Generator(rule_gen.kind, rule_gen.index, rule_gen.sign, alpha)
    out = []
    for name in variables_in_order(src):
        betas = variable_addresses(src, name)
        gammas = variable_addresses(tgt, name)
        lhs = (outer,) + tuple(
            Generator(inner.kind, inner.index, inner.sign, alpha + g + delta)
            for g in gammas
        )
        rhs = tuple(
            Generator(inner.kind, inner.index, inner.sign, alpha + b + delta)
            for b in betas
        ) + (outer,)
        out.append(
            RelationInstance("naturality", (rule_gen.index, inner.index), alpha, lhs, rhs)
        )
    return out


def assoc_redexes(t: Term) -> list:
    """All (rule index, address) pairs where a forward regrouping applies.

    The rule with index i moves an application node from child position i+1
    into child position i; every such step strictly decreases rank.  The
    pairs come in (address, index) order.
    """
    return [
        (i, a)
        for a, u in subterms(t)
        if isinstance(u, App)
        for i in range(1, len(u.children))
        if isinstance(u.children[i], App)
    ]


def fill_square(t: Term, n: int, m1: Generator, m2: Generator):
    """Close the fork of two distinct positive letters applicable at t.

    Returns (w1, w2, family) with m1+w1 and m2+w2 equal positive words: the
    two sides of one relation instance, each without its first letter.  Of
    the two letters, `outer` acts at the shorter address and `deep` at the
    longer.  Orthogonal addresses give functoriality; adjacent indices at
    one address give `adjacent_assoc`; `deep` = a<n-1> at the nest that
    `outer` moves gives `pentagon`; every other fork is naturality, with
    `deep` followed through `outer`'s rule when it acts inside one of the
    rule's variables.
    """
    if m1 == m2:
        raise TermError("fill_square needs two distinct letters")
    for m in (m1, m2):
        if m.kind != "a" or m.sign != 1:
            raise TermError("fill_square takes forward regroup letters")
        node = subterm(t, m.address)
        if (
            node is None
            or isinstance(node, Var)
            or not isinstance(node.children[m.index], App)
        ):
            raise TermError(f"{format_generator(m)} does not apply at this term")

    if orthogonal(m1.address, m2.address):
        return (m2,), (m1,), "functoriality"

    outer, deep = (m1, m2) if len(m1.address) <= len(m2.address) else (m2, m1)
    i, base = outer.index, outer.address
    rest = deep.address[len(base) :]
    if rest == () and abs(i - deep.index) == 1:
        inst = adjacent_assoc(n, min(i, deep.index), base)
    elif rest == (i + 1,) and deep.index == n - 1:
        inst = pentagon(n, i, base)
    else:
        if rest == ():  # indices at least 2 apart: disjoint child spans
            moved = deep
        elif rest == (i + 1,):  # deep regroups inside the nest outer moves
            moved = A(deep.index + 1, base + (i,))
        else:  # deep acts inside a variable of outer's rule
            rule, depth = theory_for("c", n).rule(f"a{i}"), 1
            while not isinstance(var := subterm(rule.source, rest[:depth]), Var):
                depth += 1
            (gamma,) = variable_addresses(rule.target, var.name)
            moved = A(deep.index, base + gamma + rest[depth:])
        lhs, rhs = (outer, moved), (deep, outer)
        inst = RelationInstance("naturality", (i, deep.index), base, lhs, rhs)
    sides = {inst.lhs[0]: inst.lhs[1:], inst.rhs[0]: inst.rhs[1:]}
    return sides[m1], sides[m2], inst.family
