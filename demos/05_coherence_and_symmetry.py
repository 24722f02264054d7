#!/usr/bin/env python3
# Why the presentation is complete: every fork of positive steps closes
# with one of four declared squares, all positive paths agree, and the
# induced transpositions satisfy the symmetric-group relations.

from treegroups.terms import Var, cat, format_term, lmb, underlying_list
from treegroups.operators import catalan_theory
from treegroups.coherence import (
    A,
    check_moore,
    dual_hexagon_derivation,
    eval_diagram,
    fill_square,
    format_word,
    positive_paths,
    positive_steps,
)

v = Var
theory = catalan_theory(2)
sig = theory.signature

# two positive letters applicable at the same term always close into a
# square from one of: functoriality, naturality, pentagon, adjacent assoc
comb4 = cat(v("a"), cat(v("b"), cat(v("c"), v("d"))))
print("term:", format_term(comb4, sig))
for m1, m2 in [(A(1), A(1, (2,)))]:
    w1, w2, family = fill_square(comb4, m1, m2, 2, "c")
    print(f"fork {format_word([m1])} vs {format_word([m2])} closes by {family}:")
    print("  ", format_word((m1,) + w1), "==", format_word((m2,) + w2))

# every maximal positive path ends at the left comb with the same diagram
paths = positive_paths(comb4, 2)
print(f"\n{format_term(comb4, sig)} has {len(paths)} positive paths:")
for path in paths:
    print("  ", format_word(path))
print("all reach:", format_term(lmb(underlying_list(comb4), 2), sig))
print("one diagram:", len({eval_diagram(p, 2, "c") for p in paths}) == 1)
print("letters applicable at the start:", format_word(positive_steps(comb4, 2, "c")))

# the mirrored hexagon is not an axiom: it follows by word rewriting from
# involution, hexagon, and compatibility
print("\ndual hexagon, derived step by step (n=3, i=1):")
for note, word in dual_hexagon_derivation(3, 1):
    print(f"  {format_word(word) or '(empty)':55}  {note}")

# adjacent transpositions of a flat tuple generate the full symmetric group
ok, lines = check_moore(4)
print("\nsymmetric-group relations, n=4:")
for line in lines:
    print("  " + line)
