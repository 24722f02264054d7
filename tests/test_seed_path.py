"""The seed path against its reference in `seed_reference`.

Words are evaluated by the library (pairwise composition, triangular
unifier) and by the reference (left fold, substitute at every step); the
canonical seeds and the reduced diagrams must be equal.  `mgu` must
return the reference's substitutions, with the same key order, on random
term pairs that repeat variables, clash on symbols and fail the occurs
check.
"""

import itertools
import random

import seed_reference as ref

from treegroups.coherence import Generator, eval_diagram, generator_rule, theory_for
from treegroups.diagrams import to_diagram
from treegroups.operators import eval_word
from treegroups.terms import App, Var
from treegroups.unify import mgu


def random_word(rng, n, theory_name, length, max_depth):
    kinds = "a" if theory_name == "c" else "as"
    return tuple(
        Generator(
            rng.choice(kinds),
            rng.randint(1, n - 1),
            rng.choice((1, -1)),
            tuple(rng.randint(1, n) for _ in range(rng.randint(0, max_depth))),
        )
        for _ in range(length)
    )


def assert_same_evaluation(word, n, theory_name):
    theory = theory_for(theory_name, n)
    trs = [generator_rule(g, theory) for g in word]
    op = eval_word(trs, theory.signature)
    expected = ref.eval_word(trs, theory.signature)
    assert op == expected
    assert eval_diagram(word, n, theory_name) == to_diagram(expected, n)


def test_random_words_match_the_left_fold():
    rng = random.Random(2024)
    for n in (2, 3, 4):
        for theory_name in ("c", "sc"):
            for length in (0, 1, 2, 3, 5, 8, 17, 48):
                word = random_word(rng, n, theory_name, length, max_depth=4)
                assert_same_evaluation(word, n, theory_name)


def test_long_words_match_the_left_fold():
    # The reference is quadratic in the word: a 512-letter word costs it
    # about three seconds, so only two long words are checked.
    rng = random.Random(512)
    for n, theory_name, length in ((2, "sc", 512), (4, "c", 128)):
        word = random_word(rng, n, theory_name, length, max_depth=3)
        assert_same_evaluation(word, n, theory_name)


def random_term(rng, symbols, names, depth):
    if depth == 0 or rng.random() < 0.3:
        return Var(rng.choice(names))
    symbol, arity = rng.choice(symbols)
    return App(symbol, tuple(random_term(rng, symbols, names, depth - 1) for _ in range(arity)))


def same_substitution(got, expected):
    return got == expected and list(got) == list(expected)


def test_unifiers_match_the_reference():
    rng = random.Random(99)
    # With one symbol nothing can clash, so every failure there is the
    # occurs check across the two sides.
    families = {"one symbol": [("F", 2)], "clashing": [("F", 2), ("G", 2), ("H", 3)]}
    failures = {}
    unified = 0
    for family, symbols in families.items():
        for _ in range(600):
            names = ["x", "y", "z"][: rng.randint(1, 3)]
            t1 = random_term(rng, symbols, names, rng.randint(0, 4))
            t2 = random_term(rng, symbols, names, rng.randint(0, 4))
            expected, got = ref.mgu(t1, t2), mgu(t1, t2)
            if expected is None:
                assert got is None
                failures[family, "mgu"] = failures.get((family, "mgu"), 0) + 1
            else:
                assert same_substitution(got.left, expected.left)
                assert same_substitution(got.right, expected.right)
                unified += 1
    assert unified > 200
    assert len(failures) == 2 and min(failures.values()) > 50, failures


def test_unifiers_match_the_reference_on_nonlinear_sides():
    # every pair of small shapes over two names, repeated names allowed
    leaves = [Var("x"), Var("y")]
    terms = list(leaves)
    for a, b in itertools.product(leaves + [App("F", (Var("x"), Var("y")))], repeat=2):
        terms.append(App("F", (a, b)))
    for t1, t2 in itertools.product(terms, repeat=2):
        for left, right in ((t1, t2), (App("F", (t1, t2)), App("F", (t2, t1)))):
            expected, got = ref.mgu(left, right), mgu(left, right)
            assert (got is None) == (expected is None)
            if got is not None:
                assert same_substitution(got.left, expected.left)
                assert same_substitution(got.right, expected.right)
