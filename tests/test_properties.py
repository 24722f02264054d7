"""Seeded property tests of reduction and the diagram product.

The examples are derandomized, so every run checks the same diagrams.  The
module skips when `hypothesis` is not installed.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from treegroups.diagrams import (
    LEAF,
    TreeDiagram,
    expand,
    expand_diagram,
    leaf_count,
    multiply,
    reduce,
)

from collapse_reference import all_reduction_endpoints

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def diagrams(draw, max_carets, n=None, max_expansions=0):
    """A diagram of up to `max_carets` random carets on each side, then up
    to `max_expansions` simple expansions, so some carets always collapse."""
    if n is None:
        n = draw(st.sampled_from((2, 3, 4)))
    k = draw(st.integers(0, max_carets))
    trees = []
    for _ in range(2):
        tree = LEAF
        for _ in range(k):
            tree = expand(tree, draw(st.integers(1, leaf_count(tree))), n)
        trees.append(tree)
    perm = draw(st.permutations(range(1, k * (n - 1) + 2)))
    d = TreeDiagram(n, trees[0], trees[1], tuple(perm))
    for _ in range(draw(st.integers(0, max_expansions))):
        d = expand_diagram(d, draw(st.integers(1, len(d.perm))))
    return d


@SEEDED
@given(diagrams(max_carets=8, max_expansions=4))
def test_reduce_is_idempotent(d):
    once = reduce(d)
    assert reduce(once) == once


@SEEDED
@given(diagrams(max_carets=8, max_expansions=2), st.data())
def test_reduce_ignores_a_simple_expansion(d, data):
    leaf = data.draw(st.integers(1, len(d.perm)))
    assert reduce(expand_diagram(d, leaf)) == reduce(d)


@SEEDED
@given(st.integers(0, 5).flatmap(lambda k: diagrams(max_carets=k, max_expansions=5 - k)))
def test_reduce_is_the_reference_endpoint(d):
    assert all_reduction_endpoints(d) == {reduce(d)}


@SEEDED
@given(
    st.sampled_from((2, 3, 4)).flatmap(
        lambda n: st.tuples(*[diagrams(max_carets=12, n=n)] * 3)
    )
)
def test_multiply_is_associative(factors):
    a, b, c = factors
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
