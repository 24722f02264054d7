"""Deciding word equality on one tree pair against comparing reduced diagrams.

`words_equal` cancels the common prefix and suffix of w1 and w2, lets what
is left of w1 and then the inverse of what is left of w2 act on one
identity pair, and asks `TreePair.is_trivial`; the slower route evaluates
both words with `eval_diagram`, reduces both and compares the diagrams.
The two must agree on random word pairs and on pairs that are equal by
construction, and `is_trivial` must agree with reducing a diagram and
comparing the result with the identity.  `word_problem_reference` keeps
`words_equal` as it was before the cancellation, letting every letter of
both words act; the two must agree on seeded near-identical pairs.
"""

import random

import pytest

from treegroups import coherence
from treegroups.coherence import (
    Generator,
    S,
    eval_diagram,
    invert_word,
    parse_word,
    words_equal,
)
from treegroups.diagrams import TreeDiagram, TreePair, identity_diagram, reduce
from treegroups.terms import TermError, orthogonal

import word_problem_reference as ref
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


def edited_pairs(rng, n, theory_name, length):
    """(w1, w2) pairs around one shared random word, built like the
    benchmark's: a letter and its inverse inserted, two adjacent letters at
    orthogonal addresses exchanged, or one letter inserted, each in the
    middle; the word against itself doubled, against its own prefix and
    against the empty word; and, in theory sc, one twist written `s` in w1
    and `S` in w2, which is the same element but not the same letter."""
    word = random_word(rng, n, theory_name, length, MAX_DEPTH)
    (g,) = random_word(rng, n, theory_name, 1, MAX_DEPTH)
    at = rng.randint(0, length)
    yield word, word[:at] + (g, g.inverse()) + word[at:]
    while True:
        first, second = deep_letter(rng, n, theory_name), deep_letter(rng, n, theory_name)
        if orthogonal(first.address, second.address):
            break
    yield word[:at] + (first, second) + word[at:], word[:at] + (second, first) + word[at:]
    yield word, word[:at] + (g,) + word[at:]
    yield word, word + (g,)
    yield word, word + word
    yield word, word[: rng.randint(0, length)]
    yield word, ()
    if theory_name == "sc":
        twist = S(rng.randint(1, n - 1), g.address)
        yield word[:at] + (twist,) + word[at:], word[:at] + (twist.inverse(),) + word[at:]


def test_words_equal_agrees_with_the_reference():
    rng = random.Random(29)
    seen = set()
    for n in (2, 3, 4):
        for theory_name in ("c", "sc"):
            for length in (0, 1, 2, 3, 5, 8, 13, 21, 34, 64) * 2:
                for w1, w2 in edited_pairs(rng, n, theory_name, length):
                    expected = ref.words_equal(w1, w2, n, theory_name)
                    assert words_equal(w1, w2, n, theory_name) == expected
                    assert words_equal(w2, w1, n, theory_name) == expected
                    seen.add(expected)
    assert seen == {True, False}


def test_equal_letters_from_different_tokens_cancel():
    # a01[-] and a1[-] are two tokens of one letter, S1[-] is not s1[-]
    for text1, text2, n, theory_name in (
        ("a01[-] a1[2] a1[1.01]", "a1[-] a1[1] a1[1.1]", 2, "c"),
        ("s1[-] a02[3] s2[-]", "S1[-] a2[3] S2[-]", 3, "sc"),
        ("a1[-] s1[2] a1[-]", "a1[-] S1[2] A1[-]", 2, "sc"),
        ("a001[-]", "a1[-] a1[-]", 2, "c"),
    ):
        w1, w2 = parse_word(text1), parse_word(text2)
        for u, v in ((w1, w2), (w2, w1), (w1, w1 + w1), (w1, ())):
            assert words_equal(u, v, n, theory_name) == ref.words_equal(u, v, n, theory_name)


class CountingPair(TreePair):
    """A `TreePair` that counts the pairs built and the letters acting."""

    built = acted = 0

    def __init__(self, d):
        super().__init__(d)
        CountingPair.built += 1

    def regroup(self, address, i, sign):
        CountingPair.acted += 1
        super().regroup(address, i, sign)

    def swap(self, address, i):
        CountingPair.acted += 1
        super().swap(address, i)


def test_only_the_middles_act(monkeypatch):
    monkeypatch.setattr(coherence, "TreePair", CountingPair)
    rng = random.Random(7)
    for n, theory_name in ((2, "c"), (3, "sc")):
        u, v = (random_word(rng, n, theory_name, k, MAX_DEPTH) for k in (40, 30))
        x = y = ()
        while x[:1] == y[:1] or x[-1:] == y[-1:]:  # middles that differ at both ends
            x, y = (random_word(rng, n, theory_name, k, MAX_DEPTH) for k in (3, 2))
        CountingPair.built = CountingPair.acted = 0
        assert words_equal(u + v, u + v, n, theory_name)
        assert (CountingPair.built, CountingPair.acted) == (0, 0)
        expected = ref.words_equal(x, y, n, theory_name)
        assert words_equal(u + x + v, u + y + v, n, theory_name) == expected
        assert (CountingPair.built, CountingPair.acted) == (1, len(x) + len(y))


def test_every_letter_is_checked_before_any_cancels():
    # a bad letter in the common prefix or suffix still raises, and w1's
    # first bad letter is reported before w2's, as by the reference
    good = parse_word("a1[-] a1[2]")
    for bad, theory_name in (
        (Generator("a", 2, 1, ()), "c"),
        (Generator("a", 1, 1, (3,)), "c"),
        (Generator("a", 1, -1, (1, 3)), "sc"),
        (Generator("s", 1, 1, ()), "c"),
    ):
        for w1, w2 in (
            ((bad,) + good, (bad,) + good[:1]),
            (good + (bad,), good[1:] + (bad,)),
            ((bad,) + good, (bad,) + good),
            (good, good + (bad,)),
            ((Generator("a", 5, 1, ()),) + good, (bad,) + good),
        ):
            with pytest.raises(TermError) as expected:
                ref.words_equal(w1, w2, 2, theory_name)
            with pytest.raises(TermError) as got:
                words_equal(w1, w2, 2, theory_name)
            assert str(got.value) == str(expected.value)
