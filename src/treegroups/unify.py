"""Syntactic first-order unification, matching, and composability.

The central entry point is `mgu(t1, s2)`, which renames the two terms apart
before unifying and returns the most general unifier as a *pair* of
substitutions: one acting on the variables of `t1`, one on the variables of
`s2`.  The pair form matters because identically named variables on the two
sides are distinct: the callers quantify the two terms separately.

The solver is the classic transformation system (decompose / clash /
eliminate with occurs check) on a worklist, keeping the solved set
idempotent as bindings are added.  No union-find machinery: inputs here are
desk-sized.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import App, Term, Var, apply_subst, support, variables_in_order

# Internal namespaces used while the two sides share one variable space.
# The marker byte cannot appear in parsed identifiers.
_L = "l\x1f"
_R = "r\x1f"


@dataclass(frozen=True)
class UnifierPair:
    """Substitutions (left, right) with t1^left == s2^right."""

    left: dict
    right: dict


def occurs(name: str, t: Term) -> bool:
    if isinstance(t, Var):
        return t.name == name
    return any(occurs(name, c) for c in t.children)


def match(pattern: Term, subject: Term, bindings: dict | None = None) -> dict | None:
    """One-sided matching: a substitution phi with pattern^phi == subject.

    Subject variables are treated as constants.  Returns None when the
    subject is not an instance of the pattern (including inconsistent
    bindings of a repeated pattern variable).
    """
    out = dict(bindings) if bindings else {}
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


def match_many(pairs) -> dict | None:
    """Match several (pattern, subject) pairs under one shared binding."""
    out: dict | None = {}
    for pattern, subject in pairs:
        out = match(pattern, subject, out)
        if out is None:
            return None
    return out


def unify_shared(t1: Term, t2: Term) -> dict | None:
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


def _prefix_vars(t: Term, prefix: str) -> Term:
    if isinstance(t, Var):
        return Var(prefix + t.name)
    return App(t.symbol, tuple(_prefix_vars(c, prefix) for c in t.children))


def mgu(t1: Term, s2: Term) -> UnifierPair | None:
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

    def solved(prefix: str, name: str) -> Term:
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

    def out_subst(prefix: str, source: Term) -> dict:
        result = {}
        for name in variables_in_order(source):
            term = apply_subst(solved(prefix, name), remap)
            if term != Var(name):
                result[name] = term
        return result

    return UnifierPair(out_subst(_L, t1), out_subst(_R, s2))


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
