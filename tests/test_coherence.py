import functools
import gc
import itertools
import random

import pytest

from treegroups import coherence
from treegroups.terms import (
    App,
    TermError,
    ParseError,
    Var,
    cat,
    catalan_signature,
    enumerate_terms,
    lmb,
    parse_term,
    subterm,
    subterms,
)
from treegroups.diagrams import (
    identity_diagram,
    invert_diagram,
    is_order_preserving,
    multiply,
    to_diagram,
)
from treegroups.coherence import (
    A,
    S,
    Generator,
    adjacent_assoc,
    apply_word_to_term,
    check_axioms,
    check_coherence,
    check_moore,
    compatibility,
    dual_hexagon,
    dual_hexagon_derivation,
    eval_diagram,
    fill_square,
    format_word,
    free_reduce,
    functoriality_instance,
    generator_rule,
    hexagon,
    invert_word,
    involution,
    letter_rule,
    parse_word,
    pentagon,
    positive_paths,
    positive_steps,
    relation_instances,
    substitute_once,
    theory_for,
    three_cycle,
    word_operator,
    words_equal,
)
from treegroups.unify import mgu

import square_reference
import theory_reference
from theory_reference import catalan_theory, symmetric_catalan_theory
from diagram_reference import moore_relation_lines
from square_reference import naturality_instances
from test_seed_path import random_word


def v(name):
    return Var(name)


def test_word_text_round_trip():
    text = "a1[-] a1[2] S1[-] A2[2.1] s3[1.1.3]"
    word = parse_word(text)
    assert format_word(word) == text
    assert word[0] == A(1)
    assert word[2] == S(1, (), -1)
    assert word[3] == Generator("a", 2, -1, (2, 1))
    with pytest.raises(ParseError):
        parse_word("b1[-]")
    with pytest.raises(ParseError):
        parse_word("a1")
    with pytest.raises(ParseError):
        parse_word("a1[0]")


def test_generator_validation():
    with pytest.raises(TermError):
        generator_rule(A(2), 2, "c")
    with pytest.raises(TermError):
        generator_rule(S(1), 2, "c")
    with pytest.raises(TermError):
        generator_rule(A(1, (3,)), 2, "c")
    assert generator_rule(S(2, (1, 3)), 3, "sc").rule.name == "s2"
    for args, message in (
        (("b", 1), "unknown generator kind 'b'"),
        (("a", 1, 0), "generator sign must be +1 or -1"),
    ):
        with pytest.raises(TermError) as raised:
            Generator(*args)
        assert str(raised.value) == message


def test_pentagon_is_mac_lane_for_n2():
    inst = pentagon(2, 1)
    assert format_word(inst.lhs) == "a1[2] a1[-] a1[1]"
    assert format_word(inst.rhs) == "a1[-] a1[-]"
    assert words_equal(inst.lhs, inst.rhs, 2, "c")


def test_pentagon_n3():
    inst = pentagon(3, 1)
    assert format_word(inst.lhs) == "a2[2] a1[-] a2[1] a1[1]"
    assert format_word(inst.rhs) == "a1[-] a1[-]"
    assert words_equal(inst.lhs, inst.rhs, 3, "c")
    shifted = pentagon(3, 2, (2,))
    assert words_equal(shifted.lhs, shifted.rhs, 3, "c")
    with pytest.raises(TermError):
        pentagon(3, 3)


def test_adjacent_assoc():
    with pytest.raises(TermError):
        adjacent_assoc(2, 1)
    inst = adjacent_assoc(3, 1)
    assert format_word(inst.lhs) == "a1[-] a2[-] a1[-]"
    assert format_word(inst.rhs) == "a2[-] a1[-] a1[1]"
    assert words_equal(inst.lhs, inst.rhs, 3, "c")
    inst4 = adjacent_assoc(4, 2)
    assert words_equal(inst4.lhs, inst4.rhs, 4, "c")


def test_involution():
    inst = involution(2, 1)
    assert eval_diagram(inst.lhs, 2, "sc") == identity_diagram(2)
    assert inst.rhs == ()
    assert words_equal(inst.lhs, inst.rhs, 2, "sc")


def test_hexagon_is_mac_lane_for_n2():
    inst = hexagon(2, 1)
    assert format_word(inst.lhs) == "s1[-] a1[-] s1[1]"
    assert format_word(inst.rhs) == "A1[-] s1[2] a1[-]"
    assert words_equal(inst.lhs, inst.rhs, 2, "sc")


def test_dual_hexagon():
    inst = dual_hexagon(2, 1)
    assert format_word(inst.lhs) == "s1[-] A1[-] s1[2]"
    assert format_word(inst.rhs) == "a1[-] s1[1] A1[-]"
    for n in (2, 3):
        for i in range(1, n):
            inst = dual_hexagon(n, i)
            assert words_equal(inst.lhs, inst.rhs, n, "sc")
    inst = dual_hexagon(3, 2)
    assert words_equal(inst.lhs, inst.rhs, 3, "sc")


def test_compatibility_and_three_cycle():
    for n in (3, 4):
        for i in range(2, n + 1):
            for j in range(1, n - 1):
                inst = compatibility(n, i, j)
                assert words_equal(inst.lhs, inst.rhs, n, "sc")
        for i in range(1, n - 1):
            inst = three_cycle(n, i)
            assert words_equal(inst.lhs, inst.rhs, n, "sc")
    with pytest.raises(TermError):
        compatibility(2, 2, 1)
    with pytest.raises(TermError):
        three_cycle(2, 1)


def test_functoriality():
    inst = functoriality_instance(A(1, (1,)), A(1, (2,)))
    assert words_equal(inst.lhs, inst.rhs, 2, "c")
    with pytest.raises(TermError):
        functoriality_instance(A(1), A(1, (2,)))


def test_naturality_instances_linear():
    c2 = catalan_theory(2)
    instances = naturality_instances(A(1), A(1), (), (), c2)
    assert len(instances) == 3  # one per variable of the regroup rule
    # the third variable sits at 2.2 in the source and 2 in the target
    by_var = {format_word(inst.lhs): inst for inst in instances}
    assert "a1[-] a1[2]" in by_var
    inst = by_var["a1[-] a1[2]"]
    assert format_word(inst.rhs) == "a1[2.2] a1[-]"
    for inst in instances:
        assert words_equal(inst.lhs, inst.rhs, 2, "c")
    # twists under regroupings, n = 3
    sc3 = symmetric_catalan_theory(3)
    for inst in naturality_instances(A(1), S(1), (), (), sc3):
        assert words_equal(inst.lhs, inst.rhs, 3, "sc")
    for inst in naturality_instances(S(1), A(2), (2,), (), sc3):
        assert words_equal(inst.lhs, inst.rhs, 3, "sc")


def test_eval_diagram_examples():
    assert eval_diagram((), 2, "c") == identity_diagram(2)
    assert eval_diagram(parse_word("a1[-] A1[-]"), 2, "c") == identity_diagram(2)
    inst = pentagon(2, 1)
    assert eval_diagram(inst.lhs, 2, "c") == eval_diagram(inst.rhs, 2, "c")
    with pytest.raises(TermError):
        eval_diagram(parse_word("s1[-]"), 2, "c")


def test_eval_diagram_is_fold_of_multiply():
    rng = random.Random(41)
    for n in (2, 3, 4):
        addresses = [
            addr
            for depth in range(4)
            for addr in itertools.product(range(1, n + 1), repeat=depth)
        ]
        for theory_name, kinds in (("c", "a"), ("sc", "as")):
            pool = [
                Generator(kind, idx, sign, addr)
                for kind in kinds
                for idx in range(1, n)
                for sign in (1, -1)
                for addr in addresses
            ]
            for _ in range(8):
                word = tuple(rng.choice(pool) for _ in range(rng.randint(0, 24)))
                direct = eval_diagram(word, n, theory_name)
                folded = identity_diagram(n)
                for g in word:
                    folded = multiply(folded, to_diagram(word_operator((g,), n, theory_name), n))
                assert direct == folded


def test_theory_for_is_built_once_per_name_and_arity():
    assert theory_for("c", 3) is theory_for("c", 3)
    assert theory_for("sc", 3) is not theory_for("c", 3)
    assert theory_for("sc", 3) == symmetric_catalan_theory(3)
    for _ in range(2):
        with pytest.raises(TermError):
            theory_for("v", 3)


def test_theory_builders_match_the_reference_builders():
    # `coherence.theory_for` assembles both tuple theories from `letter_rule`;
    # the reference builds them straight from `regroup_rule` and `swap_rule`
    for n in range(2, 9):
        for built, reference in (
            (coherence.catalan_theory(n), catalan_theory(n)),
            (coherence.symmetric_catalan_theory(n), symmetric_catalan_theory(n)),
        ):
            assert built == reference and hash(built) == hash(reference)
            assert [r.name for r in built.rules] == [r.name for r in reference.rules]


@pytest.mark.parametrize("n, message", [
    (2.0, "arity of '*' must be a positive integer"),
    (1, "tuple symbol arity must be at least 2"),
    (0, "tuple symbol arity must be at least 2"),
])
@pytest.mark.parametrize("warm", [False, True])
def test_theory_builders_refuse_a_bad_arity_with_a_cold_or_warm_cache(n, message, warm):
    # the reference builders give the message; with a warm cache, 2.0 must
    # not find the theory cached for 2
    for name, build, reference in (
        ("c", coherence.catalan_theory, catalan_theory),
        ("sc", coherence.symmetric_catalan_theory, symmetric_catalan_theory),
    ):
        for call in (build, functools.partial(theory_for, name), reference):
            theory_for.cache_clear()
            if warm:
                theory_for(name, 2)
            with pytest.raises(TermError) as caught:
                call(n)
            assert str(caught.value) == message


def test_word_and_relation_layers_build_no_theory():
    # letters are checked against the arity and the theory's name, so the
    # word problem, the axiom suite and Moore's relations build no rules
    letter_rule.cache_clear()
    for n in (2, 3, 4):
        for name in ("c", "sc"):
            word = (A(1), A(n - 1, (n,)), S(1)) if name == "sc" else (A(1), A(n - 1, (n,)))
            assert words_equal(word, word, n, name)
            assert eval_diagram(word, n, name).n == n
            assert check_axioms(n, name, 1)[0]
        assert check_moore(n)[0]
    assert letter_rule.cache_info().currsize == 0


def test_rule_readers_build_only_the_rules_of_the_letters_they_meet():
    letter_rule.cache_clear()
    word_operator((A(1),), 40, "c")
    assert letter_rule.cache_info().currsize == 1
    letter_rule.cache_clear()
    assert check_coherence(40, 0)[0]  # one term, a variable: no node to rewrite
    assert letter_rule.cache_info().currsize == 0


def test_positive_steps_build_no_rule_of_a_letter_that_cannot_apply():
    # a flat node has no nested child, so no a<i> applies at it
    size = letter_rule.cache_info().currsize
    assert check_coherence(600, 1)[0]
    assert letter_rule.cache_info().currsize == size
    t = parse_term("(x1 (x2 x3 x4) x5)", catalan_signature(3))
    letter_rule.cache_clear()
    assert list(positive_steps(t, 3, "c")) == [A(1)]
    assert letter_rule.cache_info().currsize == 1


def test_word_layer_refuses_a_bad_arity_or_name_on_empty_words():
    with pytest.raises(TermError) as caught:
        words_equal((), (), 1, "c")
    assert str(caught.value) == "tuple symbol arity must be at least 2"
    with pytest.raises(TermError) as caught:
        eval_diagram((), 2, "bogus")
    assert str(caught.value) == "unknown theory 'bogus' (expected 'c' or 'sc')"


def brown_generators(n, depths):
    """Brown's generators of F_{n,1} as diagrams: x_{(n-1)k+j}, for k in
    `depths` and 0 <= j <= n-2, is a_{n-1} a_{n-2} ... a_{j+1}, every letter
    at the address n.n...n of length k."""
    out = []
    for k in depths:
        alpha = ".".join([str(n)] * k) or "-"
        for j in range(n - 1):
            word = " ".join(f"a{i}[{alpha}]" for i in range(n - 1, j, -1))
            out.append(eval_diagram(parse_word(word), n, "c"))
    return out


def test_brown_presentation_of_f_n():
    # Brown, "Finiteness properties of groups" (JPAA 1987): F_{n,1} has the
    # relations x_i^-1 x_j x_i = x_{j+n-1} for i < j.  Classical products
    # apply the rightmost factor first; in this package's left-to-right
    # product, x_i^-1 x_j x_i is multiply(multiply(x_i, x_j), x_i^-1).
    for n in (2, 3, 4, 5):
        x = brown_generators(n, range(4))
        assert len(set(x)) == len(x)
        checked = 0
        for j in range(len(x) - (n - 1)):
            for i in range(j):
                conjugate = multiply(multiply(x[i], x[j]), invert_diagram(x[i]))
                assert conjugate == x[j + n - 1]
                assert conjugate != x[j + n - 2]
                checked += 1
        assert checked == {2: 3, 3: 15, 4: 36, 5: 66}[n]


def test_words_equal_examples():
    w = parse_word("a1[2] s1[-]")
    assert words_equal(w, w, 2, "sc")
    assert words_equal(parse_word("a1[-] a1[-]"), pentagon(2, 1).lhs, 2, "c")
    assert not words_equal(parse_word("a1[-]"), parse_word("s1[-]"), 2, "sc")
    assert is_order_preserving(eval_diagram(parse_word("a1[-]"), 2, "sc"))
    assert not is_order_preserving(eval_diagram(parse_word("s1[-]"), 2, "sc"))


def test_regroup_words_are_order_preserving():
    rng = random.Random(43)
    pool = [A(i, addr, sign) for i in (1, 2) for sign in (1, -1) for addr in [(), (2,), (1, 3)]]
    for _ in range(50):
        word = tuple(rng.choice(pool) for _ in range(rng.randint(0, 4)))
        assert is_order_preserving(eval_diagram(word, 3, "c"))


def test_positive_paths():
    t = lmb(list("abcd"), 2)
    assert positive_paths(t, 2) == [()]
    square = cat(cat(v("a"), v("b")), cat(v("c"), v("d")))
    paths = positive_paths(square, 2)
    expected_end = lmb(list("abcd"), 2)
    for path in paths:
        assert apply_word_to_term(square, path, 2, "c") == expected_end
    comb = cat(v("a"), cat(v("b"), cat(v("c"), v("d"))))
    paths = positive_paths(comb, 2)
    assert len(paths) >= 1
    images = {eval_diagram(path, 2, "c") for path in paths}
    assert len(images) == 1


def test_fill_square_examples():
    t = cat(cat(v("a"), cat(v("b"), v("c"))), cat(v("d"), cat(v("e"), v("f"))))
    w1, w2, family = fill_square(t, A(1, (1,)), A(1, (2,)), 2, "c")
    assert family == "functoriality"
    assert w1 == (A(1, (2,)),) and w2 == (A(1, (1,)),)

    comb4 = cat(v("a"), cat(v("b"), cat(v("c"), v("d"))))
    w1, w2, family = fill_square(comb4, A(1), A(1, (2,)), 2, "c")
    assert family == "pentagon"
    assert (A(1),) + w1 == pentagon(2, 1).rhs
    assert (A(1, (2,)),) + w2 == pentagon(2, 1).lhs

    t3 = cat(v("x"), cat(v("y1"), v("y2"), v("y3")), cat(v("z1"), v("z2"), v("z3")))
    w1, w2, family = fill_square(t3, A(1), A(2), 3, "c")
    assert family == "adjacent-assoc"
    end1 = apply_word_to_term(t3, (A(1),) + w1, 3, "c")
    end2 = apply_word_to_term(t3, (A(2),) + w2, 3, "c")
    assert end1 == end2 is not None


def test_fill_square_distant_indices_same_address():
    # only possible from arity 4 up: two regroupings of the same node whose
    # indices differ by at least 2 rearrange disjoint child spans
    y = [v(f"y{k}") for k in range(1, 5)]
    z = [v(f"z{k}") for k in range(1, 5)]
    t = cat(v("x1"), cat(*y), v("x3"), cat(*z))
    m1, m2 = A(1), A(3)
    w1, w2, family = fill_square(t, m1, m2, 4, "c")
    assert family == "naturality"
    end1 = apply_word_to_term(t, (m1,) + w1, 4, "c")
    end2 = apply_word_to_term(t, (m2,) + w2, 4, "c")
    assert end1 == end2 is not None
    assert words_equal((m1,) + w1, (m2,) + w2, 4, "c")


def test_fill_square_errors():
    t = cat(v("a"), cat(v("b"), v("c")))
    with pytest.raises(TermError):
        fill_square(t, A(1), A(1), 2, "c")
    with pytest.raises(TermError):
        fill_square(t, A(1), A(1, (1,)), 2, "c")  # a1[1] does not apply here


def test_fill_square_closes_every_pair():
    # each square is one instance of the family it names: a pentagon or an
    # adjacent-assoc square is an instance of that family's builder, and a
    # square whose deep letter acts inside a variable of the outer letter's
    # rule is the naturality instance of that variable
    for n, max_nodes in ((2, 4), (3, 4), (4, 4)):
        theory = catalan_theory(n)
        built = {
            frozenset((inst.lhs, inst.rhs)): inst.family
            for inst in relation_instances(n, "c", max_addr=max_nodes)
        }
        seen = set()
        for k in range(max_nodes + 1):
            for t in enumerate_terms(n, k):
                letters = positive_steps(t, n, "c")
                for m1, m2 in itertools.combinations(letters, 2):
                    w1, w2, family = fill_square(t, m1, m2, n, "c")
                    assert family in (
                        "functoriality",
                        "naturality",
                        "pentagon",
                        "adjacent-assoc",
                    )
                    end1 = apply_word_to_term(t, (m1,) + w1, n, "c")
                    end2 = apply_word_to_term(t, (m2,) + w2, n, "c")
                    assert end1 is not None and end1 == end2
                    assert words_equal((m1,) + w1, (m2,) + w2, n, "c")
                    sides = frozenset(((m1,) + w1, (m2,) + w2))
                    outer, deep = sorted((m1, m2), key=lambda m: len(m.address))
                    rest = deep.address[len(outer.address) :]
                    if family in ("pentagon", "adjacent-assoc"):
                        assert built.get(sides) == family
                    elif family == "naturality" and rest not in ((), (outer.index + 1,)):
                        family = "naturality in a variable"
                        assert sides in [
                            frozenset((inst.lhs, inst.rhs))
                            for depth in range(1, len(rest) + 1)
                            for inst in naturality_instances(
                                outer, deep, outer.address, rest[depth:], theory
                            )
                        ]
                    seen.add(family)
        assert seen >= {"pentagon", "naturality in a variable"}
        assert ("adjacent-assoc" in seen) == (n > 2)


# Sizes at which the closer and the steps are compared with the reference:
# 1 408 forks and 1 708 positive steps in all.
REFERENCE_SIZES = ((2, 6), (3, 5), (4, 4), (5, 3))


def test_fill_square_matches_the_reference_on_every_fork():
    # the closer reads the theory's rules and declared families; the
    # reference hand-codes the regroup cases, and both must close each fork,
    # in either letter order, with the same words and family
    forks = 0
    for n, max_nodes in REFERENCE_SIZES:
        for k in range(max_nodes + 1):
            for t in enumerate_terms(n, k):
                steps = positive_steps(t, n, "c")
                expected = [A(i, a) for i, a in square_reference.assoc_redexes(t)]
                assert list(steps) == expected
                for m1, m2 in itertools.combinations(steps, 2):
                    forks += 1
                    for g, h in ((m1, m2), (m2, m1)):
                        got = fill_square(t, g, h, n, "c")
                        assert got == square_reference.fill_square(t, n, g, h)
    assert forks == 1408


def test_positive_steps_land_later_in_the_enumeration():
    # the order `check_coherence` relies on when it decides each size's
    # terms in reverse enumeration order
    count = 0
    for n, max_nodes in REFERENCE_SIZES:
        for k in range(max_nodes + 1):
            terms = enumerate_terms(n, k)
            position = {t: j for j, t in enumerate(terms)}
            for j, t in enumerate(terms):
                for g, u in positive_steps(t, n, "c").items():
                    assert u == apply_word_to_term(t, (g,), n, "c")
                    assert position[u] > j
                    count += 1
    assert count == 1708


def test_rule_readers_match_the_theory_reference():
    # every letter at every node, in both directions: the readers that build
    # one rule per letter met against those that read a built theory
    steps_seen = 0
    for n in (2, 3, 4, 5):
        for name in ("c", "sc"):
            theory = theory_reference.THEORIES[name](n)
            letters = list(itertools.product("a" if name == "c" else "as", range(1, n), (1, -1)))
            for k in range(5):
                for t in enumerate_terms(n, k):
                    steps = positive_steps(t, n, name)
                    expected = theory_reference.positive_steps(t, theory)
                    assert list(steps.items()) == list(expected.items())
                    steps_seen += len(steps)
                    for g, u in steps.items():
                        assert apply_word_to_term(t, (g,), n, name) == u
                        assert apply_word_to_term(u, (g.inverse(),), n, name) == t
                    for address, node in subterms(t):
                        if isinstance(node, App):
                            for kind, index, sign in letters:
                                word = (Generator(kind, index, sign, address),)
                                got = apply_word_to_term(t, word, n, name)
                                assert got == theory_reference.apply_word_to_term(t, word, theory)
    assert steps_seen == 10031  # so every reader is compared on steps


def test_word_operator_matches_the_theory_reference():
    rng = random.Random(1963)
    for n in (2, 3, 4):
        for name in ("c", "sc"):
            theory = theory_reference.THEORIES[name](n)
            for length in (0, 1, 2, 3, 5, 8, 13, 21):
                for _ in range(3):
                    word = random_word(rng, n, name, length, max_depth=3)
                    expected = theory_reference.word_operator(word, theory)
                    assert word_operator(word, n, name) == expected


def test_check_coherence_fails_when_successors_come_first(monkeypatch):
    # decided in the wrong order, every step meets an undecided successor
    real = coherence.enumerate_terms
    monkeypatch.setattr(coherence, "enumerate_terms", lambda n, k: real(n, k)[::-1])
    ok, lines = coherence.check_coherence(2, 4)
    assert not ok
    sig = catalan_signature(2)
    for line in lines:
        t = parse_term(line.split(" term=")[1].split(" pairs=")[0], sig)
        assert line.endswith(" FAIL") == bool(positive_steps(t, 2, "c"))


def test_fill_square_refuses_what_is_not_a_forward_step():
    # with `test_fill_square_errors`, which refuses a1[1] on (a (b c))
    t = cat(v("a"), cat(v("b"), v("c")))
    with pytest.raises(TermError):
        fill_square(t, A(1), S(1), 2, "c")  # no twists in the regrouping theory
    nested = cat(v("a"), cat(cat(v("b"), v("c")), v("d")))
    assert apply_word_to_term(nested, (A(1, (2,), -1),), 2, "c") is not None
    with pytest.raises(TermError):
        fill_square(nested, A(1), A(1, (2,), -1), 2, "c")  # an inverse letter


def test_fill_square_closes_symmetric_forks_from_the_declared_families():
    sc3 = symmetric_catalan_theory(3)
    sig = sc3.signature
    # two twists at one node: the instance whose sides start with them is
    # the three-cycle; involution, with an empty side, is skipped
    t = parse_term("(x y z)", sig)
    w1, w2, family = fill_square(t, S(1), S(2), 3, "sc")
    assert family == "three-cycle"
    end1 = apply_word_to_term(t, (S(1),) + w1, 3, "sc")
    end2 = apply_word_to_term(t, (S(2),) + w2, 3, "sc")
    assert end1 == end2 is not None
    assert words_equal((S(1),) + w1, (S(2),) + w2, 3, "sc")
    # no declared family starts with a regrouping and a twist of the nest
    t = parse_term("(x1 (x2 x3 x4) x5)", sig)
    with pytest.raises(TermError):
        fill_square(t, A(1), S(2), 3, "sc")


# (n, max nodes) of the symmetric sweep, and what it meets there: forks,
# refusals, squares per family, and naturality squares in a variable.
SYMMETRIC_SWEEP = {
    (2, 4): {
        "forks": 212, "refused": 27,
        "naturality": 138, "dual-hexagon": 27, "functoriality": 13, "pentagon": 7,
        "in a variable": 138,
    },
    (3, 3): {
        "forks": 308, "refused": 36,
        "naturality": 196, "three-cycle": 43, "dual-hexagon": 18,
        "functoriality": 12, "pentagon": 2, "adjacent-assoc": 1,
        "in a variable": 176,
    },
    (4, 2): {
        "forks": 81, "refused": 7,
        "naturality": 53, "three-cycle": 18, "dual-hexagon": 3,
        "in a variable": 36,
    },
}


def test_fill_square_sweeps_the_symmetric_forks():
    # every fork of the symmetric theory either is refused or closes; a
    # naturality square whose deep letter acts inside a variable of the
    # outer rule's source is one of the reference's per-variable instances
    for (n, max_nodes), expected in SYMMETRIC_SWEEP.items():
        theory = theory_for("sc", n)
        seen = {"forks": 0, "refused": 0, "in a variable": 0}
        for k in range(max_nodes + 1):
            for t in enumerate_terms(n, k):
                for m1, m2 in itertools.combinations(positive_steps(t, n, "sc"), 2):
                    seen["forks"] += 1
                    try:
                        w1, w2, family = fill_square(t, m1, m2, n, "sc")
                    except TermError:
                        seen["refused"] += 1
                        continue
                    seen[family] = seen.get(family, 0) + 1
                    end = apply_word_to_term(t, (m1,) + w1, n, "sc")
                    assert end is not None and end == apply_word_to_term(t, (m2,) + w2, n, "sc")
                    assert words_equal((m1,) + w1, (m2,) + w2, n, "sc")
                    outer, deep = sorted((m1, m2), key=lambda m: len(m.address))
                    rest = deep.address[len(outer.address) :]
                    source = theory.rule(f"{outer.kind}{outer.index}").source
                    depths = [
                        depth
                        for depth in range(1, len(rest) + 1)
                        if isinstance(subterm(source, rest[:depth]), Var)
                    ]
                    if family == "naturality" and depths:
                        seen["in a variable"] += 1
                        sides = frozenset(((m1,) + w1, (m2,) + w2))
                        assert sides in [
                            frozenset((inst.lhs, inst.rhs))
                            for inst in naturality_instances(
                                outer, deep, outer.address, rest[depths[0] :], theory
                            )
                        ]
        assert seen == expected, n


def test_relation_instances_sweep():
    families = {inst.family for inst in relation_instances(3, "sc", max_addr=0)}
    assert families == {
        "pentagon",
        "adjacent-assoc",
        "involution",
        "compatibility",
        "three-cycle",
        "hexagon",
        "dual-hexagon",
    }
    c_families = {inst.family for inst in relation_instances(2, "c", max_addr=0)}
    assert c_families == {"pentagon"}  # adjacent associativity is empty at n=2


def test_relation_instances_refuse_an_unknown_theory():
    # any name but "c" used to sweep the symmetric families
    with pytest.raises(TermError) as caught:
        list(relation_instances(2, "bogus", 0))
    assert str(caught.value) == "unknown theory 'bogus' (expected 'c' or 'sc')"
    with pytest.raises(TermError, match="^unknown theory 'C' "):
        check_axioms(2, "C", 0)
    assert list(coherence.THEORIES) == ["c", "sc"]


def test_check_axioms_small():
    for n in (2, 3):
        ok, lines = check_axioms(n, "sc", max_addr=1)
        assert ok
        assert all(line.endswith("PASS") for line in lines)
    ok, lines = check_axioms(2, "c", max_addr=1)
    assert ok


def test_relations_hold_in_context():
    # u . lhs . w == u . rhs . w for random surrounding words
    rng = random.Random(47)
    pool = [
        Generator(kind, idx, sign, addr)
        for kind in "as"
        for idx in (1,)
        for sign in (1, -1)
        for addr in [(), (1,), (2,), (2, 2)]
    ]
    instances = list(relation_instances(2, "sc", max_addr=1))
    for _ in range(40):
        inst = rng.choice(instances)
        u = tuple(rng.choice(pool) for _ in range(rng.randint(0, 2)))
        w = tuple(rng.choice(pool) for _ in range(rng.randint(0, 2)))
        assert words_equal(u + inst.lhs + w, u + inst.rhs + w, 2, "sc")


def test_unequal_words_reported_unequal():
    rng = random.Random(53)
    pool = [
        Generator(kind, idx, sign, addr)
        for kind in "as"
        for idx in (1,)
        for sign in (1, -1)
        for addr in [(), (1,), (2,)]
    ]
    checked = 0
    for _ in range(1000):
        w1 = tuple(rng.choice(pool) for _ in range(rng.randint(0, 4)))
        w2 = tuple(rng.choice(pool) for _ in range(rng.randint(0, 4)))
        d1 = eval_diagram(w1, 2, "sc")
        d2 = eval_diagram(w2, 2, "sc")
        if d1 != d2:
            checked += 1
            assert not words_equal(w1, w2, 2, "sc")
    assert checked > 400


def test_check_coherence_small():
    ok, lines = check_coherence(2, max_nodes=3)
    assert ok and lines


def test_checkers_leave_no_cyclic_garbage():
    # the checkers and the unifier are plain loops with no closure that
    # refers to itself, so what they build is freed by reference count
    word = parse_word("a1[-] a1[2] A1[-]")
    left, right = cat(v("x"), cat(v("y"), v("z"))), cat(cat(v("y"), v("x")), v("w"))

    def run_checkers():
        assert check_coherence(2, 3)[0]
        assert check_moore(3)[0]
        dual_hexagon_derivation(3, 1)
        assert mgu(left, right) is not None
        word_operator(word, 2, "c")

    run_checkers()  # fills the theory and shape caches
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(20):
            run_checkers()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_free_words():
    word = parse_word("a1[-] s1[2] A1[-]")
    assert free_reduce(word) == word
    assert free_reduce(word + invert_word(word)) == ()
    assert invert_word(parse_word("a1[-] s1[2]")) == parse_word("S1[2] A1[-]")
    assert substitute_once(parse_word("a1[-] a1[-]"), parse_word("a1[-]"), ()) == parse_word("a1[-]")
    with pytest.raises(TermError):
        substitute_once(parse_word("a1[-]"), parse_word("s1[-]"), ())


def test_dual_hexagon_derivation():
    for n in (2, 3):
        for i in range(1, n):
            steps = dual_hexagon_derivation(n, i)
            assert steps[-1][1] == free_reduce(dual_hexagon(n, i).rhs)
            # every intermediate word stays equal to the dual hexagon lhs
            for _, word in steps:
                assert words_equal(word, dual_hexagon(n, i).lhs, n, "sc")


def test_twist_diagram_and_moore():
    assert eval_diagram((S(1),), 2, "sc").perm == (2, 1)
    for n in (2, 3, 4):
        ok, lines = check_moore(n)
        assert ok
        assert any("closure" in line for line in lines)


def test_moore_relations_agree_with_the_multiply_chain():
    # the relations are decided as words; the reference multiplies the
    # twist diagrams, and only n <= 5 adds the closure line
    for n in range(2, 9):
        ok, lines = check_moore(n)
        reference = moore_relation_lines(n)
        assert ok and lines[: len(reference)] == reference
        assert len(lines) - len(reference) == (n <= 5)
        assert len(reference) == (n - 1) + (n - 2) + (n - 2) * (n - 3) // 2


def test_theory_rule_refuses_a_name_the_theory_lacks():
    with pytest.raises(TermError) as caught:
        catalan_theory(2).rule("s1")
    assert str(caught.value) == "theory 'c' has no rule 's1'"
    sc2 = symmetric_catalan_theory(2)
    assert sc2.rule("s1") is sc2.rules[1] and sc2.rule("a1") is sc2.rules[0]
    assert hash(theory_for("c", 3)) == hash(catalan_theory(3))
    assert theory_for("c", 3) == catalan_theory(3) != symmetric_catalan_theory(3)


def test_apply_word_to_term_gives_none_where_a_letter_does_not_apply():
    flat = cat(v("a"), v("b"))
    assert apply_word_to_term(flat, (A(1),), 2, "c") is None
    t = cat(v("a"), cat(v("b"), v("c")))
    assert apply_word_to_term(t, (A(1),), 2, "c") == cat(cat(v("a"), v("b")), v("c"))
    assert apply_word_to_term(t, (A(1), A(1)), 2, "c") is None  # the second does not apply
