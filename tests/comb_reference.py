"""Reference left comb for the tests: re-slice the rest of the leaf word.

`lmb` builds the comb's first node from the first n labels and then hangs
the next n-1 labels off it, slicing the rest of the word at every level, so
it is quadratic in the word's length.  The library builds the same comb as
one left fold from the first label (`treegroups.terms.lmb`); the tests
require the two to agree, errors included.
"""

from treegroups.terms import CAT, App, Term, TermError, Var


def lmb(labels, n: int) -> Term:
    labels = list(labels)
    m = len(labels)
    if n < 2:
        raise TermError("tuple symbol arity must be at least 2")
    if m == 0:
        raise TermError("empty leaf word")
    if m == 1:
        return Var(labels[0])
    if (m - 1) % (n - 1) != 0:
        raise TermError(f"leaf word of length {m} is not n + k(n-1) for n={n}")
    node: Term = App(CAT, tuple(Var(x) for x in labels[:n]))
    rest = labels[n:]
    while rest:
        node = App(CAT, (node,) + tuple(Var(x) for x in rest[: n - 1]))
        rest = rest[n - 1 :]
    return node
