"""Syntactic first-order unification, matching, and composability.

The central entry point is `mgu(t1, s2)`, which unifies the two terms with
their variables kept apart and returns the most general unifier as a *pair*
of substitutions: one acting on the variables of `t1`, one on the variables
of `s2`.  The pair form matters because identically named variables on the
two sides are distinct: the callers quantify the two terms separately.

The solver is the classic transformation system (decompose / clash /
eliminate with occurs check) on a worklist, kept in triangular solved form
(Martelli and Montanari, *An efficient unification algorithm*, TOPLAS 1982):
a binding points at an unsubstituted subterm of an input, a term is walked
through the bindings only when its pair is popped, and the result terms are
built once, at the end.
"""

from __future__ import annotations

from .terms import App, Term, Value, Var, set_field, variables_in_order


class UnifierPair(Value):
    """Substitutions (left, right) with t1^left == s2^right."""

    _fields = ("left", "right")

    def __init__(self, left: dict, right: dict):
        set_field(self, "left", left)
        set_field(self, "right", right)


def match(pattern: Term, subject: Term) -> dict | None:
    """One-sided matching: a substitution phi with pattern^phi == subject.

    Subject variables are treated as constants.  Returns None when the
    subject is not an instance of the pattern (including inconsistent
    bindings of a repeated pattern variable).
    """
    out = {}
    stack = [(pattern, subject)]
    while stack:
        p, s = stack.pop()
        if isinstance(p, Var):
            if p.name in out:
                if out[p.name] != s:
                    return None
            else:
                out[p.name] = s
            continue
        if isinstance(s, Var):
            return None
        if p.symbol != s.symbol or len(p.children) != len(s.children):
            return None
        stack.extend(zip(p.children, s.children))
    return out


# A variable of the solver is a key (side, name): mgu puts t1 on side 0 and
# s2 on side 1, so equal spellings on the two sides stay distinct without
# renaming.  A binding maps a key to (side, subterm), where the subterm is a
# piece of an input term, never a substituted copy; the solved form is
# triangular and is resolved once at the end.


def _walk(side: int, t: Term, bindings: dict) -> tuple:
    """Follow variable bindings from t until an App or an unbound variable."""
    while isinstance(t, Var):
        bound = bindings.get((side, t.name))
        if bound is None:
            break
        side, t = bound
    return side, t


def _unbound(side: int, t: Term, bindings: dict):
    """The unbound variables of t with bindings applied, left to right, as
    keys.  Each bound variable is expanded once: a second visit would add
    no new variable, because its first expansion is finished by then (a
    variable never occurs in its own)."""
    expanded: set = set()
    stack = [(side, t)]
    while stack:
        side, t = stack.pop()
        if isinstance(t, App):
            stack.extend((side, c) for c in reversed(t.children))
            continue
        key = (side, t.name)
        if key not in bindings:
            yield key
        elif key not in expanded:
            expanded.add(key)
            stack.append(bindings[key])


def _solve(side1: int, t1: Term, side2: int, t2: Term) -> dict | None:
    """Triangular most general unifier of (side1, t1) and (side2, t2), or None.

    Pairs are taken from a stack and walked only when popped.  A variable
    meets a term as in the classic transformation system: after the walk, a
    variable on the left is bound to the right, otherwise the right-hand
    variable is bound to the left; the occurs check follows the bindings.
    The returned dict lists the bindings in the order they were made.
    """
    bindings: dict = {}
    stack = [(side1, t1, side2, t2)]
    while stack:
        sa, a, sb, b = stack.pop()
        sa, a = _walk(sa, a, bindings)
        sb, b = _walk(sb, b, bindings)
        if isinstance(a, App) and isinstance(b, App):
            if a is b and sa == sb:
                continue
            if a.symbol != b.symbol or len(a.children) != len(b.children):
                return None
            stack.extend((sa, x, sb, y) for x, y in zip(a.children, b.children))
            continue
        if not isinstance(a, Var):
            sa, a, sb, b = sb, b, sa, a
        key = (sa, a.name)
        if isinstance(b, Var) and key == (sb, b.name):
            continue
        if key in _unbound(sb, b, bindings):
            return None
        bindings[key] = (sb, b)
    return bindings


def _resolve(side: int, t: Term, bindings: dict, memo: dict) -> Term:
    """t with the bindings applied.  `memo` maps every residual variable to
    its output term and takes in each bound variable once its term is built,
    so no term is built twice.  The children are built in a loop, not a
    comprehension, so the recursion takes one frame per App level."""
    chain = []
    while isinstance(t, Var) and (side, t.name) not in memo:
        chain.append((side, t.name))
        side, t = bindings[chain[-1]]
    if isinstance(t, Var):
        out = memo[side, t.name]
    else:
        kids = []
        for c in t.children:
            kids.append(_resolve(side, c, bindings, memo))
        out = App(t.symbol, tuple(kids))
    for key in chain:
        memo[key] = out
    return out


def mgu(t1: Term, s2: Term) -> UnifierPair | None:
    """Most general unifier of t1 and s2 after renaming the sides apart.

    Returns UnifierPair(phi, psi) with t1^phi == s2^psi, or None when the
    pair is not unifiable.  Any other unifier pair factors through the
    returned one.  Both substitutions are idempotent: residual variables of
    the unified term are named deterministically, preferring the original
    names but never reusing a name that either side binds.
    """
    bindings = _solve(0, t1, 1, s2)
    if bindings is None:
        return None
    sides = (variables_in_order(t1), variables_in_order(s2))
    names = (set(sides[0]), set(sides[1]))

    # Residual variables of the unified term get deterministic output names.
    # A residual keeps its original spelling only when every side that owns
    # a variable of that spelling resolves it to this very residual;
    # otherwise it takes a suffixed name clear of all input names.  This
    # keeps both returned substitutions idempotent: no name occurring in a
    # range is ever nontrivially bound.
    remap: dict = {}
    used: set = set()
    for key in dict.fromkeys(_unbound(0, t1, bindings)):
        base = key[1]
        keeps = base not in used
        for side in (0, 1):
            if keeps and base in names[side]:
                end, t = _walk(side, Var(base), bindings)
                keeps = isinstance(t, Var) and (end, t.name) == key
        if keeps:
            candidate = base
        else:
            counter = 2
            candidate = f"{base}_{counter}"
            while candidate in used or candidate in names[0] or candidate in names[1]:
                counter += 1
                candidate = f"{base}_{counter}"
        used.add(candidate)
        remap[key] = Var(candidate)

    substs = ({}, {})
    for side in (0, 1):
        for name in sides[side]:
            term = _resolve(side, Var(name), bindings, remap)
            if not (isinstance(term, Var) and term.name == name):
                substs[side][name] = term
    return UnifierPair(*substs)


def is_composable(pairs) -> bool:
    """True iff every two terms drawn from the equation sides are unifiable
    (after renaming apart)."""
    sides = []
    for s, t in pairs:
        sides.append(s)
        sides.append(t)
    for i, a in enumerate(sides):
        for b in sides[i:]:
            if mgu(a, b) is None:
                return False
    return True
