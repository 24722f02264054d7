"""Partial rewriting operators generated by balanced equations.

An operator is represented by its seed: a pair of terms (source, target)
whose substitution instances form exactly the operator's graph.  Applying a
rule at a subterm address is realized by wrapping the rule's sides in a
most-general context along the address, so translated rules are again seed
operators.  Composition goes through pair unification of the first target
with the second source; a failed unification yields the empty operator,
which absorbs everything.

The module also defines `Theory` and the rules of the two tuple theories'
letters: for an n-ary tuple symbol, `regroup_rule` moves a nested tuple one
child position to the left and `swap_rule` transposes two adjacent leaves.
`coherence.theory_for` assembles the theories themselves.
"""

from __future__ import annotations

from .terms import (
    CAT,
    App,
    Signature,
    Term,
    TermError,
    Value,
    Var,
    apply_subst,
    is_balanced,
    replace,
    set_field,
    subterm,
    variables_in_order,
)
from .unify import match, mgu


class Rule(Value):
    """A named, balanced equation oriented as source -> target."""

    _fields = ("name", "source", "target")

    def __init__(self, name: str, source: Term, target: Term):
        if not is_balanced(source, target):
            raise TermError(f"rule {name!r} is not balanced")
        set_field(self, "name", name)
        set_field(self, "source", source)
        set_field(self, "target", target)


class TranslatedRule(Value):
    """A rule applied at a subterm address, possibly in reverse."""

    _fields = ("rule", "address", "forward")

    def __init__(self, rule: Rule, address: tuple = (), forward: bool = True):
        set_field(self, "rule", rule)
        set_field(self, "address", address)
        set_field(self, "forward", forward)


class _Empty:
    """The absorbing empty operator."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "EMPTY"


EMPTY = _Empty()


class Seed(Value):
    """A seed operator: maps instances of source to instances of target."""

    _fields = ("source", "target")

    def __init__(self, source: Term, target: Term):
        set_field(self, "source", source)
        set_field(self, "target", target)

    def __repr__(self) -> str:
        return f"Seed({self.source!r} -> {self.target!r})"


Operator = Seed | _Empty


def canonical(seed: Seed) -> Seed:
    """Rename variables to x1, x2, ... by first occurrence in the source.

    Operator equality is syntactic equality of canonical seeds.
    """
    order = variables_in_order(seed.source)
    renaming = {name: Var(f"x{k}") for k, name in enumerate(order, start=1)}
    extra = [v for v in variables_in_order(seed.target) if v not in renaming]
    if extra:
        raise TermError(f"seed target has variables outside the source: {extra}")
    return Seed(apply_subst(seed.source, renaming), apply_subst(seed.target, renaming))


def identity_operator() -> Seed:
    """The everywhere-defined identity, Seed(x1, x1)."""
    return Seed(Var("x1"), Var("x1"))


def translated_seed(tr: TranslatedRule, signature: Signature) -> Seed:
    """The seed of a rule applied at an address.

    Walking the address, each step places the rule under construction at the
    indicated child and fresh distinct variables at all sibling positions,
    which is the most general context along that path.
    """
    source, target = tr.rule.source, tr.rule.target
    if not tr.forward:
        source, target = target, source
    fresh = 0
    single = signature.single_symbol
    for step in reversed(tr.address):
        if isinstance(step, tuple):
            symbol, index = step
        else:
            if single is None:
                raise TermError(
                    "plain integer address steps need a single-symbol signature"
                )
            symbol, index = single, step
        arity = signature.arity(symbol)
        if not 1 <= index <= arity:
            raise TermError(f"address step {step} out of range for {symbol!r}")
        kids_s, kids_t = [], []
        for k in range(1, arity + 1):
            if k == index:
                kids_s.append(source)
                kids_t.append(target)
            else:
                fresh += 1
                kids_s.append(Var(f"c{fresh}"))
                kids_t.append(Var(f"c{fresh}"))
        source = App(symbol, tuple(kids_s))
        target = App(symbol, tuple(kids_t))
    return canonical(Seed(source, target))


def apply_operator(op: Operator, u: Term) -> Term | None:
    """Apply an operator to a term; None when u is outside its domain."""
    if op is EMPTY:
        return None
    phi = match(op.source, u)
    if phi is None:
        return None
    return apply_subst(op.target, phi)


def compose(op1: Operator, op2: Operator) -> Operator:
    """The operator "op1 followed by op2".

    The graph of the result is exactly the relational composite of the two
    graphs: pairs (s1^phi, t2^psi) over all instances of the unified middle
    term.  Returns EMPTY when the middle terms do not unify.
    """
    if op1 is EMPTY or op2 is EMPTY:
        return EMPTY
    pair = mgu(op1.target, op2.source)
    if pair is None:
        return EMPTY
    return canonical(
        Seed(apply_subst(op1.source, pair.left), apply_subst(op2.target, pair.right))
    )


def invert(op: Operator) -> Operator:
    """Swap source and target; EMPTY is its own inverse."""
    if op is EMPTY:
        return EMPTY
    return canonical(Seed(op.target, op.source))


def eval_word(trs, signature: Signature) -> Operator:
    """Left-to-right composite of translated rules; [] gives the identity.

    The seeds are composed pairwise, neighbour with neighbour, one level at
    a time, so each unification meets two seeds of similar size instead of
    a long prefix and one letter.  Composition is associative and a
    canonical seed is unique for its operator, so the result is the left
    fold's; the identity leads the list, which keeps one `compose` per
    letter.
    """
    ops: list = [identity_operator()] + [translated_seed(tr, signature) for tr in trs]
    while len(ops) > 1:
        paired = [compose(a, b) for a, b in zip(ops[::2], ops[1::2])]
        ops = paired + ops[len(paired) * 2 :]
    return ops[0]


# ---------------------------------------------------------------------------
# Theories


class Theory(Value):
    """A named set of balanced rules over one signature.

    name is "c" or "sc" for the regrouping theory and its symmetric
    extension; n is their arity, and None for a generic theory.
    """

    _fields = ("name", "signature", "rules", "n")

    def __init__(self, name: str, signature: Signature, rules: tuple, n: int | None = None):
        set_field(self, "name", name)
        set_field(self, "signature", signature)
        set_field(self, "rules", rules)
        set_field(self, "n", n)

    def rule(self, name: str) -> Rule:
        for rule in self.rules:
            if rule.name == name:
                return rule
        raise TermError(f"theory {self.name!r} has no rule {name!r}")

    def equations(self):
        return [(r.source, r.target) for r in self.rules]


def _xvars(k: int) -> list:
    return [Var(f"x{j}") for j in range(1, k + 1)]


def regroup_rule(n: int, i: int) -> Rule:
    """Rule a<i>: the nested tuple at child i+1 regroups into child i.

    Source: x1..xi, (x_{i+1}..x_{i+n}), x_{i+n+1}..x_{2n-1}
    Target: x1..x_{i-1}, (x_i..x_{i+n-1}), x_{i+n}..x_{2n-1}
    """
    if not 1 <= i <= n - 1:
        raise TermError(f"regroup index {i} out of range for arity {n}")
    x = _xvars(2 * n - 1)
    source = App(CAT, tuple(x[:i]) + (App(CAT, tuple(x[i : i + n])),) + tuple(x[i + n :]))
    target = App(
        CAT, tuple(x[: i - 1]) + (App(CAT, tuple(x[i - 1 : i + n - 1])),) + tuple(x[i + n - 1 :])
    )
    return Rule(f"a{i}", source, target)


def swap_rule(n: int, i: int) -> Rule:
    """Rule s<i>: transpose the leaves at child positions i, i+1."""
    if not 1 <= i <= n - 1:
        raise TermError(f"swap index {i} out of range for arity {n}")
    x = _xvars(n)
    swapped = list(x)
    swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
    return Rule(f"s{i}", App(CAT, tuple(x)), App(CAT, tuple(swapped)))


# ---------------------------------------------------------------------------
# Rewriting


def rewrite_at(t: Term, rule: Rule, address: tuple, forward: bool = True) -> Term | None:
    """Single rewrite step at an address, or None if it does not apply."""
    pattern, out = (rule.source, rule.target) if forward else (rule.target, rule.source)
    node = subterm(t, address)
    if node is None:
        return None
    phi = match(pattern, node)
    if phi is None:
        return None
    return replace(t, address, apply_subst(out, phi))
