"""Seeded property tests of reduction, the diagram product, seed
composition, word evaluation and the word problem.

The examples are derandomized, so every run checks the same diagrams.  The
module skips when `hypothesis` is not installed.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from treegroups.coherence import Generator, eval_diagram, invert_word, words_equal
from treegroups.diagrams import (
    LEAF,
    TreeDiagram,
    TreePair,
    identity_diagram,
    multiply,
    reduce,
)

from treegroups.operators import (
    EMPTY,
    Rule,
    Theory,
    TranslatedRule,
    catalan_theory,
    compose,
    eval_word,
    symmetric_catalan_theory,
)
from treegroups.terms import App, Signature, Var

from collapse_reference import all_reduction_endpoints
from diagram_reference import expand, expand_diagram, leaf_count

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


# Seed composition.  `eval_word` composes a word's seeds pairwise, which
# agrees with the left fold exactly when composition is associative and a
# word's operator splits at every point.  Besides the tuple theories, a
# generic theory with a non-linear rule (dup) and a rule that changes the
# head symbol (flip), so that some composites are EMPTY.

_X, _Y = Var("x"), Var("y")
GENERIC = Theory(
    "dup-flip",
    Signature([("F", 2), ("G", 2)]),
    (
        Rule("dup", App("F", (_X, _X)), _X),
        Rule("flip", App("F", (_X, _Y)), App("G", (_Y, _X))),
    ),
)
THEORIES = (
    [catalan_theory(n) for n in (2, 3, 4)]
    + [symmetric_catalan_theory(n) for n in (2, 3, 4)]
    + [GENERIC]
)


def letters(theory):
    if theory is GENERIC:
        steps = st.sampled_from(
            [(s, k) for s, arity in theory.signature.arities.items() for k in range(1, arity + 1)]
        )
    else:
        steps = st.integers(1, theory.n)
    address = st.lists(steps, max_size=2).map(tuple)
    return st.builds(TranslatedRule, st.sampled_from(theory.rules), address, st.booleans())


theory_and_words = st.sampled_from(THEORIES).flatmap(
    lambda theory: st.tuples(st.just(theory), *[st.lists(letters(theory), max_size=5)] * 3)
)


def test_generic_theory_has_empty_composites():
    flip = TranslatedRule(GENERIC.rule("flip"))
    assert eval_word([flip, flip], GENERIC.signature) is EMPTY


@SEEDED
@given(theory_and_words)
def test_compose_is_associative_and_empty_absorbs(case):
    theory, *words = case
    a, b, c = (eval_word(w, theory.signature) for w in words)
    assert compose(compose(a, b), c) == compose(a, compose(b, c))
    assert compose(a, EMPTY) is EMPTY and compose(EMPTY, a) is EMPTY


@SEEDED
@given(theory_and_words)
def test_eval_word_splits_at_every_point(case):
    theory, u, v, _ = case
    signature = theory.signature
    assert eval_word(u + v, signature) == compose(
        eval_word(u, signature), eval_word(v, signature)
    )


# Word evaluation by local action: the diagram of a concatenation is the
# product of the diagrams of its parts.

@st.composite
def word_pairs(draw):
    n = draw(st.sampled_from((2, 3, 4)))
    theory_name = draw(st.sampled_from(("c", "sc")))
    letter = st.builds(
        Generator,
        st.sampled_from("a" if theory_name == "c" else "as"),
        st.integers(1, n - 1),
        st.sampled_from((1, -1)),
        st.lists(st.integers(1, n), max_size=3).map(tuple),
    )
    u, v = (tuple(draw(st.lists(letter, max_size=12))) for _ in range(2))
    return n, theory_name, u, v


@SEEDED
@given(word_pairs())
def test_eval_diagram_is_a_homomorphism(case):
    n, theory_name, u, v = case
    assert eval_diagram(u + v, n, theory_name) == multiply(
        eval_diagram(u, n, theory_name), eval_diagram(v, n, theory_name)
    )


# The word problem on one tree pair: w1 followed by the inverse of w2 is
# trivial exactly when the two reduced diagrams coincide.

@SEEDED
@given(word_pairs())
def test_words_equal_compares_the_reduced_diagrams(case):
    n, theory_name, u, v = case
    assert words_equal(u, v, n, theory_name) == (
        eval_diagram(u, n, theory_name) == eval_diagram(v, n, theory_name)
    )
    assert words_equal(u + v + invert_word(v), u, n, theory_name)


@SEEDED
@given(diagrams(max_carets=6, max_expansions=4))
def test_is_trivial_is_reducing_to_the_identity(d):
    assert TreePair(d).is_trivial() == (reduce(d) == identity_diagram(d.n))
    ordered = tuple(range(1, len(d.perm) + 1))
    same_tree = TreeDiagram(d.n, d.domain, d.domain, d.perm)
    assert TreePair(same_tree).is_trivial() == (d.perm == ordered)
