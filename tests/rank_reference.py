"""Reference rank for the tests: the node formula, summed node by node.

At each application node with children t_1..t_n, `rank` adds
sum_{i=2}^{n} (i-1) * (length(t_i) - 1), counting each child's leaves
afresh, so a comb of depth d costs O(d^2).  The library sums the same
quantity leaf by leaf in one walk (`treegroups.terms.rank`); the tests
require the two to agree.
"""

from treegroups.terms import App, Term, subterms, underlying_list


def rank(t: Term) -> int:
    return sum(
        i * (len(underlying_list(c)) - 1)
        for _, u in subterms(t)
        if isinstance(u, App)
        for i, c in enumerate(u.children)
    )
