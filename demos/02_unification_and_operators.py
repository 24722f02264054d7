#!/usr/bin/env python3
# Pair unification and the partial rewriting operators it powers.

from treegroups.terms import App, Signature, Var, cat, format_term
from treegroups.unify import is_composable, match, mgu
from treegroups.coherence import catalan_theory, symmetric_catalan_theory
from treegroups.operators import (
    EMPTY,
    Rule,
    TranslatedRule,
    apply_operator,
    compose,
    invert,
    translated_seed,
)

v = Var
sig2 = catalan_theory(2).signature

# matching reads a substitution off an instance
pattern = cat(v("x1"), cat(v("x2"), v("x3")))
subject = cat(v("a"), cat(cat(v("b"), v("c")), v("d")))
print("match:", match(pattern, subject))

# unification returns a substitution *pair*: the sides are renamed apart,
# so equal spellings on the two sides are unrelated variables
pair = mgu(cat(v("x"), v("y")), cat(cat(v("a"), v("b")), v("c")))
print("mgu left :", pair.left)
print("mgu right:", pair.right)

# a rule oriented source -> target acts on every instance of its source
theory = catalan_theory(2)
alpha = translated_seed(TranslatedRule(theory.rule("a1")), sig2)
print("\nregroup seed:", format_term(alpha.source, sig2), "->", format_term(alpha.target, sig2))
print("applied:     ", format_term(apply_operator(alpha, subject), sig2))

# the same rule can act below the root: the seed wraps it in a most
# general context along the address
deep = translated_seed(TranslatedRule(theory.rule("a1"), (2,)), sig2)
print("at child 2:  ", format_term(deep.source, sig2), "->", format_term(deep.target, sig2))

# composition goes through unification of the middle terms
square = compose(alpha, alpha)
print("alpha twice: ", format_term(square.source, sig2), "->", format_term(square.target, sig2))
print("alpha then its inverse is the idempotent on its source:")
print("             ", compose(alpha, invert(alpha)))

# the tuple theories compose without collapse; a theory with clashing head
# symbols does not
print("\nbinary theory composable:   ", is_composable(theory.equations()))
print("symmetric theory composable:", is_composable(symmetric_catalan_theory(3).equations()))
two_heads = Signature([("F", 2), ("G", 2)])
clash = Rule("r", App("F", (v("x"), v("y"))), App("G", (v("y"), v("x"))))
print("F-to-G theory composable:   ", is_composable([(clash.source, clash.target)]))
op = translated_seed(TranslatedRule(clash), two_heads)
print("composing its rule with itself:", compose(op, op) is EMPTY and "empty operator")
