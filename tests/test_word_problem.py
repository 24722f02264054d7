"""Deciding word equality on one tree pair against comparing reduced diagrams.

`words_equal` lets w1 and then the inverse of w2 act on one identity pair
and asks `TreePair.is_trivial`; the slower route evaluates both words with
`eval_diagram`, reduces both and compares the diagrams.  The two must agree
on random word pairs and on pairs that are equal by construction, and
`is_trivial` must agree with reducing a diagram and comparing the result
with the identity.
"""

import random

from treegroups.coherence import Generator, eval_diagram, invert_word, words_equal
from treegroups.diagrams import TreeDiagram, TreePair, identity_diagram, reduce
from treegroups.terms import orthogonal

from diagram_reference import expand_diagram, leaf_count, random_diagram
from test_seed_path import random_word

MAX_DEPTH = 3


def deep_letter(rng, n, theory_name):
    """A random letter at an address of depth 1..MAX_DEPTH."""
    (g,) = random_word(rng, n, theory_name, 1, MAX_DEPTH - 1)
    return Generator(g.kind, g.index, g.sign, (rng.randint(1, n),) + g.address)


def word_pairs(rng, n, theory_name, length):
    """(w1, w2) pairs built around one random word: unequal by an appended
    letter, equal by an inserted subword and its inverse, equal by
    exchanging two letters at orthogonal addresses, a second random word,
    and the word's inverse followed by the word against the empty word."""
    word = random_word(rng, n, theory_name, length, MAX_DEPTH)
    (g,) = random_word(rng, n, theory_name, 1, MAX_DEPTH)
    v = random_word(rng, n, theory_name, rng.randint(1, 4), MAX_DEPTH)
    at = rng.randint(0, length)
    yield word, word + (g,)
    yield word, word[:at] + v + invert_word(v) + word[at:]
    while True:
        first, second = deep_letter(rng, n, theory_name), deep_letter(rng, n, theory_name)
        if orthogonal(first.address, second.address):
            break
    yield word[:at] + (first, second) + word[at:], word[:at] + (second, first) + word[at:]
    yield word, random_word(rng, n, theory_name, rng.randint(0, length), MAX_DEPTH)
    yield invert_word(word) + word, ()


def test_words_equal_agrees_with_the_reduced_diagrams():
    rng = random.Random(12)
    seen = set()
    for n in (2, 3, 4):
        for theory_name in ("c", "sc"):
            for length in (0, 1, 2, 3, 5, 8, 13, 21, 34, 64) * 3:
                for w1, w2 in word_pairs(rng, n, theory_name, length):
                    expected = eval_diagram(w1, n, theory_name) == eval_diagram(w2, n, theory_name)
                    assert words_equal(w1, w2, n, theory_name) == expected
                    assert words_equal(w2, w1, n, theory_name) == expected
                    seen.add(expected)
    assert seen == {True, False}


def test_is_trivial_agrees_with_reduce():
    rng = random.Random(2008)
    trivial = 0
    for n in (2, 3, 4):
        one = identity_diagram(n)
        for _ in range(300):
            d = random_diagram(n, rng, max_carets=4)
            for _ in range(rng.randint(0, 3)):
                d = expand_diagram(d, rng.randint(1, len(d.perm)))
            is_one = reduce(d) == one
            trivial += is_one
            assert TreePair(d).is_trivial() == is_one
    assert 0 < trivial < 900


def test_expansions_of_the_identity_are_trivial():
    rng = random.Random(1996)
    for n in (2, 3, 4):
        d = identity_diagram(n)
        for _ in range(40):
            d = expand_diagram(d, rng.randint(1, len(d.perm)))
            assert TreePair(d).is_trivial()


def test_one_tree_with_a_nontrivial_perm_is_not_trivial():
    # (T, T, sigma) with sigma != id: the shapes agree everywhere, the leaf
    # ids do not.
    rng = random.Random(3)
    for n in (2, 3, 4):
        for _ in range(100):
            tree = random_diagram(n, rng, max_carets=5).domain
            m = leaf_count(tree)
            if m == 1:
                continue
            perm = list(range(1, m + 1))
            while perm == sorted(perm):
                rng.shuffle(perm)
            assert not TreePair(TreeDiagram(n, tree, tree, tuple(perm))).is_trivial()
            assert TreePair(TreeDiagram(n, tree, tree, tuple(range(1, m + 1)))).is_trivial()


def test_is_trivial_leaves_the_pair_as_it_is():
    rng = random.Random(5)
    for n in (2, 3):
        for _ in range(50):
            d = random_diagram(n, rng, max_carets=4)
            pair = TreePair(d)
            pair.is_trivial()
            assert pair.freeze() == reduce(d)
