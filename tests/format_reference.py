"""Reference text form for the tests: `format_term` as one recursion per
node.

It recurses once per level of every child, the first included, so a left
comb deeper than the recursion limit does not print.  The library reads
the first-child spine in a loop (`treegroups.terms.format_term`); the tests
require the two to agree.
"""

from treegroups.terms import Signature, Term, Var


def format_term(t: Term, signature: Signature) -> str:
    if isinstance(t, Var):
        return t.name
    kids = []
    for kid in t.children:
        kids.append(kid.name if isinstance(kid, Var) else format_term(kid, signature))
    if signature.single_symbol is not None:
        return f"({' '.join(kids)})"
    return f"{t.symbol}({','.join(kids)})"
