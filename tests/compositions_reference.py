"""Reference compositions for the tests: recurse once per part.

The library once listed the compositions of `total` into `parts` parts by
recursing on the parts, one Python frame per part, so `enumerate_terms` at
an arity near the interpreter's recursion limit raised RecursionError.  It
now steps from one composition to the next in a loop
(`treegroups.terms._compositions`); the tests require the two to yield the
same tuples in the same order.
"""


def compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail
