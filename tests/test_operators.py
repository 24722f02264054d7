import itertools
import random

import pytest

from treegroups.terms import (
    App,
    Signature,
    TermError,
    Var,
    apply_subst,
    cat,
    enumerate_terms,
    is_linear_pair,
    underlying_list,
)
from treegroups.operators import (
    EMPTY,
    Rule,
    Seed,
    Theory,
    TranslatedRule,
    apply_operator,
    canonical,
    catalan_theory,
    compose,
    eval_word,
    identity_operator,
    invert,
    regroup_rule,
    rewrite_at,
    swap_rule,
    symmetric_catalan_theory,
    translated_seed,
)

from congruence_reference import congruent, one_step_rewrites
from seed_reference import seed_reduce


def v(name):
    return Var(name)


C2 = catalan_theory(2)
C3 = catalan_theory(3)
SC2 = symmetric_catalan_theory(2)
SC3 = symmetric_catalan_theory(3)

ALPHA = C2.rule("a1")


def tr(theory, name, address=(), forward=True):
    return TranslatedRule(theory.rule(name), address, forward)


def addresses(n, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(range(1, n + 1), repeat=length)


def letters(theory, max_len=2):
    out = []
    for rule in theory.rules:
        for address in addresses(theory.n, max_len):
            for forward in (True, False):
                out.append(TranslatedRule(rule, address, forward))
    return out


def test_theory_rules_are_linear():
    for theory in (C2, C3, SC2, SC3):
        for rule in theory.rules:
            assert is_linear_pair(rule.source, rule.target)


def test_translated_seed_examples():
    seed = translated_seed(tr(C2, "a1"), C2.signature)
    assert seed == Seed(
        cat(v("x1"), cat(v("x2"), v("x3"))), cat(cat(v("x1"), v("x2")), v("x3"))
    )
    seed = translated_seed(tr(C2, "a1", (2,)), C2.signature)
    assert seed == Seed(
        cat(v("x1"), cat(v("x2"), cat(v("x3"), v("x4")))),
        cat(v("x1"), cat(cat(v("x2"), v("x3")), v("x4"))),
    )
    seed = translated_seed(tr(SC2, "s1"), SC2.signature)
    assert seed == Seed(cat(v("x1"), v("x2")), cat(v("x2"), v("x1")))


def test_translated_seed_general_signature():
    sig = Signature([("F", 2), ("G", 3)])
    rule = Rule("r", App("F", (v("x"), v("y"))), App("F", (v("y"), v("x"))))
    seed = translated_seed(TranslatedRule(rule, (("G", 2),)), sig)
    assert seed.source == App("G", (v("x1"), App("F", (v("x2"), v("x3"))), v("x4")))
    assert seed.target == App("G", (v("x1"), App("F", (v("x3"), v("x2"))), v("x4")))
    with pytest.raises(TermError):
        translated_seed(TranslatedRule(rule, (("F", 3),)), sig)
    with pytest.raises(TermError):
        translated_seed(TranslatedRule(rule, (1,)), sig)


def test_apply_examples():
    alpha = translated_seed(tr(C2, "a1"), C2.signature)
    assert apply_operator(alpha, cat(v("a"), cat(v("b"), v("c")))) == cat(
        cat(v("a"), v("b")), v("c")
    )
    idem = Seed(alpha.source, alpha.source)
    u = cat(v("a"), cat(v("b"), v("c")))
    assert apply_operator(idem, u) == u
    assert apply_operator(alpha, v("a")) is None
    assert apply_operator(EMPTY, u) is None


def test_compose_example():
    alpha = translated_seed(tr(C2, "a1"), C2.signature)
    square = compose(alpha, alpha)
    assert square == Seed(
        cat(v("x1"), cat(v("x2"), cat(v("x3"), v("x4")))),
        cat(cat(cat(v("x1"), v("x2")), v("x3")), v("x4")),
    )
    # cross-check on ground instances
    for u in enumerate_terms(2, 3):
        u = apply_subst(u, {f"x{j}": v(name) for j, name in enumerate("abcd", 1)})
        once = apply_operator(alpha, u)
        twice = apply_operator(alpha, once) if once is not None else None
        assert apply_operator(square, u) == twice


def test_compose_inverse_is_idempotent():
    alpha = translated_seed(tr(C2, "a1"), C2.signature)
    idem = compose(alpha, invert(alpha))
    assert idem == Seed(alpha.source, alpha.source)
    assert compose(invert(alpha), alpha) == Seed(alpha.target, alpha.target)


def test_compose_head_clash_gives_empty():
    sig = Signature([("F", 2), ("G", 2)])
    rule = Rule("r", App("F", (v("x"), v("y"))), App("G", (v("y"), v("x"))))
    op = translated_seed(TranslatedRule(rule), sig)
    assert compose(op, op) is EMPTY
    assert compose(EMPTY, op) is EMPTY
    assert compose(op, EMPTY) is EMPTY


def test_invert():
    alpha = translated_seed(tr(C2, "a1"), C2.signature)
    assert invert(alpha) == Seed(
        cat(cat(v("x1"), v("x2")), v("x3")), cat(v("x1"), cat(v("x2"), v("x3")))
    )
    assert invert(invert(alpha)) == alpha
    idem = Seed(alpha.source, alpha.source)
    assert invert(idem) == idem
    assert invert(EMPTY) is EMPTY


def test_eval_word_examples():
    assert eval_word([], C2.signature) == identity_operator()
    word = [tr(C2, "a1"), tr(C2, "a1", (), forward=False)]
    idem = eval_word(word, C2.signature)
    assert idem == Seed(
        cat(v("x1"), cat(v("x2"), v("x3"))), cat(v("x1"), cat(v("x2"), v("x3")))
    )
    square = eval_word([tr(C2, "a1"), tr(C2, "a1")], C2.signature)
    assert square == compose(
        translated_seed(tr(C2, "a1"), C2.signature),
        translated_seed(tr(C2, "a1"), C2.signature),
    )


def test_inverse_monoid_laws_on_sampled_words():
    rng = random.Random(17)
    for theory in (C2, C3):
        pool = letters(theory)
        for _ in range(150):
            word = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
            op = eval_word(word, theory.signature)
            assert op is not EMPTY
            assert compose(op, compose(invert(op), op)) == op
            assert compose(invert(op), compose(op, invert(op))) == invert(op)


def test_compose_associativity_on_random_triples():
    rng = random.Random(23)
    pool = letters(SC3)
    for _ in range(120):
        a, b, c = (
            translated_seed(rng.choice(pool), SC3.signature) for _ in range(3)
        )
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_linearity_preserved_by_composition():
    rng = random.Random(29)
    for theory in (C2, SC3):
        pool = letters(theory)
        for _ in range(100):
            word = [rng.choice(pool) for _ in range(3)]
            op = eval_word(word, theory.signature)
            assert is_linear_pair(op.source, op.target)


def test_composable_theories_have_no_empty_products():
    for theory in (C2, C3, SC2, SC3):
        seeds = [translated_seed(t, theory.signature) for t in letters(theory)]
        for s1 in seeds:
            for s2 in seeds:
                assert compose(s1, s2) is not EMPTY


def test_ground_semantics_small():
    grounds = [t for k in range(5) for t in enumerate_terms(2, k)]
    pool = letters(C2, max_len=1)
    rng = random.Random(31)
    for _ in range(200):
        word = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
        op = eval_word(word, C2.signature)
        seeds = [translated_seed(w, C2.signature) for w in word]
        for u in grounds:
            stepwise = u
            for s in seeds:
                if stepwise is None:
                    break
                stepwise = apply_operator(s, stepwise)
            assert apply_operator(op, u) == stepwise


def test_congruent_examples():
    a, b, c = v("a"), v("b"), v("c")
    assert congruent(C2, cat(a, cat(b, c)), cat(cat(a, b), c)) is True
    assert congruent(C2, cat(a, b), cat(b, a)) is False
    assert congruent(SC2, cat(a, b), cat(b, a)) is True


def test_congruent_generic_search_and_budget():
    sig = Signature([("F", 2)])
    rule = Rule("comm", App("F", (v("x"), v("y"))), App("F", (v("y"), v("x"))))
    theory = Theory("comm", sig, (rule,))
    a, b, c = v("a"), v("b"), v("c")
    t1 = App("F", (App("F", (a, b)), c))
    t2 = App("F", (c, App("F", (b, a))))
    assert congruent(theory, t1, t2) is True
    # F is not associative here, so regrouped terms never meet
    t3 = App("F", (a, App("F", (b, c))))
    assert congruent(theory, t1, t3) is False
    # a tiny budget reports exhaustion distinctly from a negative answer
    assert congruent(theory, t1, t3, budget=1) is None


def test_rewrite_at_matches_translated_seed_application():
    rng = random.Random(37)
    grounds = [t for k in range(4) for t in enumerate_terms(2, k)]
    pool = letters(C2)
    for _ in range(200):
        letter = rng.choice(pool)
        u = rng.choice(grounds)
        via_seed = apply_operator(translated_seed(letter, C2.signature), u)
        direct = rewrite_at(u, letter.rule, letter.address, letter.forward)
        assert via_seed == direct


def test_one_step_rewrites_cover_both_directions():
    t = cat(v("a"), cat(v("b"), v("c")))
    nexts = set(one_step_rewrites(t, C2))
    assert cat(cat(v("a"), v("b")), v("c")) in nexts
    assert all(underlying_list(x) == ["a", "b", "c"] for x in nexts)


def test_naturality_holds_for_nonlinear_balanced_theory():
    # a balanced nonlinear rule: collapsing a duplicated argument
    sig = Signature([("F", 2)])
    dup = Rule("dup", App("F", (v("x"), v("x"))), v("x"))
    theory = Theory("dup", sig, (dup,))
    t = TranslatedRule(dup, (), True)
    # the rule's variable occurs twice in the source, once in the target:
    #   dup . dup@() == dup@(1) . dup@(2) . dup
    lhs = eval_word([t, t], sig)
    rhs = eval_word(
        [TranslatedRule(dup, (1,)), TranslatedRule(dup, (2,)), t], sig
    )
    assert lhs is not EMPTY and lhs == rhs


def test_seed_reduce():
    alpha = translated_seed(tr(C2, "a1"), C2.signature)
    padded = eval_word(
        [tr(C2, "a1", (1,)), tr(C2, "a1", (1,), forward=False), tr(C2, "a1")],
        C2.signature,
    )
    assert padded != alpha
    assert seed_reduce(padded) == seed_reduce(alpha) == alpha
    idem = compose(alpha, invert(alpha))
    assert seed_reduce(idem) == identity_operator()
    twist = translated_seed(TranslatedRule(SC2.rule("s1")), SC2.signature)
    assert seed_reduce(twist) == twist
    with pytest.raises(TermError):
        seed_reduce(Seed(cat(v("x"), v("x")), cat(v("x"), v("x"))))


def test_canonical_rejects_unbalanced():
    with pytest.raises(TermError):
        canonical(Seed(v("x"), cat(v("x"), v("y"))))


def test_rule_builders_refuse_bad_indices_and_unbalanced_sides():
    cases = [
        (lambda: regroup_rule(2, 2), "regroup index 2 out of range for arity 2"),
        (lambda: swap_rule(3, 0), "swap index 0 out of range for arity 3"),
        (lambda: Rule("r", v("x"), cat(v("x"), v("y"))), "rule 'r' is not balanced"),
    ]
    for call, message in cases:
        with pytest.raises(TermError) as caught:
            call()
        assert (type(caught.value), str(caught.value)) == (TermError, message)
