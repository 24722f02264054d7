"""Local action against the seed path.

`eval_diagram` lets each letter rewrite one node of a mutable tree pair and
reduces once; the seed path composes translated rule seeds by unification
and maps the composite to a diagram.  The two are independent routes to the
same group element, so their reduced diagrams must be equal, and a bad
letter must be refused by both with the same message.
"""

import random

import pytest

from treegroups.coherence import (
    Generator,
    check_letter,
    eval_diagram,
    parse_word,
    theory_for,
    word_operator,
)
from treegroups.diagrams import TreePair, identity_diagram, multiply, reduce, to_diagram
from treegroups.terms import TermError

from diagram_reference import expand_diagram, random_diagram
from test_seed_path import random_word


def assert_same_element(word, n, theory_name):
    expected = to_diagram(word_operator(word, theory_for(theory_name, n)), n)
    assert eval_diagram(word, n, theory_name) == expected


def test_random_words_match_the_seed_path():
    rng = random.Random(6)
    for n in (2, 3, 4):
        for theory_name in ("c", "sc"):
            for length in (0, 1, 2, 3, 4, 5, 8, 13, 21, 48, 96):
                for _ in range(4):
                    word = random_word(rng, n, theory_name, length, max_depth=4)
                    assert_same_element(word, n, theory_name)


def test_long_words_match_the_seed_path():
    rng = random.Random(4096)
    for n, theory_name, length in (
        (2, "c", 512),
        (2, "sc", 512),
        (3, "c", 256),
        (3, "sc", 256),
        (4, "c", 128),
        (4, "sc", 128),
    ):
        word = random_word(rng, n, theory_name, length, max_depth=4)
        assert_same_element(word, n, theory_name)


@pytest.mark.parametrize("k", [1, 2, 3, 17, 100, 330])
def test_flat_words_match_the_seed_path(k):
    for letter in ("a1[-]", "A1[-]"):
        assert_same_element(parse_word(" ".join([letter] * k)), 2, "c")


def test_mixed_signs_at_one_address_match_the_seed_path():
    rng = random.Random(330)
    for n, theory_name, address in ((2, "c", ()), (3, "c", (2,)), (3, "sc", ()), (4, "sc", (1, 4))):
        kinds = "a" if theory_name == "c" else "as"
        for length in (4, 16, 64, 200):
            word = tuple(
                Generator(rng.choice(kinds), rng.randint(1, n - 1), rng.choice((1, -1)), address)
                for _ in range(length)
            )
            assert_same_element(word, n, theory_name)


def act_letters(pair, word, sign=1):
    for g in word if sign > 0 else reversed(word):
        if g.kind == "s":
            pair.swap(g.address, g.index)
        else:
            pair.regroup(g.address, g.index, sign * g.sign)


def test_letters_act_on_a_non_identity_pair():
    # The pair starts from a diagram's labelled domain, so letter carets
    # land next to domain ids rather than on a bare identity.
    rng = random.Random(13)
    seen = set()
    for n in (2, 3, 4):
        for theory_name in ("c", "sc"):
            theory = theory_for(theory_name, n)
            for _ in range(40):
                d = random_diagram(n, rng, max_carets=4)
                for _ in range(rng.randint(0, 2)):
                    d = expand_diagram(d, rng.randint(1, len(d.perm)))
                word = random_word(rng, n, theory_name, rng.randint(0, 12), max_depth=3)
                for g in word:
                    check_letter(g, theory.n, theory.name)
                pair = TreePair(d)
                act_letters(pair, word)
                assert pair.freeze() == multiply(d, eval_diagram(word, n, theory_name))
                pair = TreePair(d)
                act_letters(pair, word)
                act_letters(pair, word, -1)
                is_one = reduce(d) == identity_diagram(n)
                assert pair.is_trivial() == is_one
                seen.add(is_one)
    assert seen == {True, False}


@pytest.mark.parametrize(
    "n, theory_name, text, message",
    [
        (2, "c", "a1[-] a2[1]", "generator index 2 out of range for n=2"),
        (3, "sc", "s0[-] a9[-]", "generator index 0 out of range for n=3"),
        (2, "sc", "a1[-] A1[1.3] a5[-]", r"generator address \(1, 3\) out of range for n=2"),
        (3, "c", "a1[-] s1[2]", "twist generators need the symmetric theory"),
        (2, "c", "S3[-]", "generator index 3 out of range for n=2"),
    ],
)
def test_bad_letters_are_refused_alike(n, theory_name, text, message):
    word = parse_word(text)
    with pytest.raises(TermError, match=f"^{message}$"):
        word_operator(word, theory_for(theory_name, n))
    with pytest.raises(TermError, match=f"^{message}$"):
        eval_diagram(word, n, theory_name)
