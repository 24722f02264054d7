import copy
import itertools
import random

import pytest

from treegroups.terms import (
    AddressError,
    App,
    ParseError,
    Signature,
    Term,
    TermError,
    Var,
    apply_assoc,
    apply_subst,
    cat,
    catalan_signature,
    enumerate_terms,
    format_address,
    format_term,
    generalized_catalan,
    is_balanced,
    is_linear_pair,
    lmb,
    normal_form_steps,
    normalize_to_lmb,
    orthogonal,
    parse_address,
    parse_term,
    rank,
    replace,
    subterm,
    subterms,
    support,
    underlying_list,
    variables_in_order,
)

import comb_reference
import format_reference
import normalize_reference
import rank_reference
from normalize_reference import step_rank_drop
from seed_reference import leaf_addresses
from square_reference import assoc_redexes, variable_addresses
from subst_reference import compose_subst
from test_seed_path import random_term


FG = Signature([("F", 2), ("G", 3)])
T_FG = App("F", (Var("w"), App("G", (Var("x"), Var("y"), Var("z")))))


def v(name):
    return Var(name)


def test_subterm_examples():
    assert subterm(T_FG, (("F", 2),)) == App("G", (v("x"), v("y"), v("z")))
    assert subterm(T_FG, ()) is T_FG
    assert subterm(T_FG, (("F", 2), ("G", 3))) == v("z")
    # walking the term tree: x sits under the second child of F
    assert subterm(T_FG, (("F", 2), ("G", 1))) == v("x")
    assert subterm(T_FG, (("F", 1), ("G", 1))) is None
    assert subterm(T_FG, (2, 3)) == v("z")


def test_subterm_absent():
    assert subterm(v("x"), (1,)) is None
    assert subterm(T_FG, (3,)) is None
    assert subterm(T_FG, (("G", 1),)) is None


def test_replace_examples():
    assert replace(T_FG, (("F", 1),), v("q")) == App(
        "F", (v("q"), App("G", (v("x"), v("y"), v("z"))))
    )
    assert replace(T_FG, (), v("s")) == v("s")
    t = cat(v("a"), cat(v("b"), v("c")))
    assert replace(t, (2,), cat(v("c"), v("b"))) == cat(v("a"), cat(v("c"), v("b")))
    with pytest.raises(AddressError):
        replace(t, (3,), v("q"))


def test_replace_leaves_orthogonal_positions():
    t = cat(cat(v("a"), v("b")), cat(v("c"), v("d")))
    r = replace(t, (1, 2), v("q"))
    assert subterm(r, (1, 2)) == v("q")
    for addr in ((1, 1), (2,), (2, 1), (2, 2)):
        assert subterm(r, addr) == subterm(t, addr)


def test_orthogonal():
    assert orthogonal((("F", 1),), (("F", 2),))
    assert not orthogonal((("F", 1),), (("F", 1), ("G", 2)))
    for addr in ((), (1,), (2, 1)):
        assert not orthogonal((), addr)
    assert orthogonal((1, 2), (1, 1))


def test_support_and_balance():
    assert support(T_FG) == frozenset("wxyz")
    assert support(v("x")) == frozenset("x")
    s, t = cat(v("x"), v("y")), cat(v("y"), v("x"))
    assert is_balanced(s, t)
    assert is_linear_pair(s, t)
    assert not is_linear_pair(cat(v("x"), v("x")), cat(v("x"), v("x")))
    assert not is_linear_pair(s, cat(v("y"), v("y")))
    assert not is_linear_pair(s, cat(v("y"), cat(v("x"), v("y"))))
    assert not is_balanced(cat(v("x"), v("y")), cat(v("x"), v("x")))


def test_apply_subst():
    t = cat(v("x"), v("y"))
    assert apply_subst(t, {"x": cat(v("a"), v("b"))}) == cat(cat(v("a"), v("b")), v("y"))
    assert apply_subst(T_FG, {}) == T_FG
    # substitution is simultaneous, not sequential
    assert apply_subst(cat(v("x"), v("y")), {"x": v("y"), "y": v("x")}) == cat(
        v("y"), v("x")
    )


def test_subst_composition_is_functorial():
    rng = random.Random(7)
    pool = [v(n) for n in "abcxyz"]
    for _ in range(50):
        t = cat(rng.choice(pool), cat(rng.choice(pool), rng.choice(pool)))
        phi = {"x": cat(v("a"), v("b")), "y": v("c")}
        psi = {"a": v("z"), "c": cat(v("x"), v("x"))}
        assert apply_subst(apply_subst(t, phi), psi) == apply_subst(
            t, compose_subst(phi, psi)
        )


def test_apply_subst_distributes_over_replace():
    t = cat(cat(v("a"), v("b")), cat(v("c"), v("d")))
    s = cat(v("e"), v("f"))
    phi = {"a": cat(v("p"), v("q")), "e": v("r"), "d": v("s")}
    for addr in ((1,), (2,), (1, 2), (2, 1)):
        assert apply_subst(replace(t, addr, s), phi) == replace(
            apply_subst(t, phi), addr, apply_subst(s, phi)
        )
    # replacements at orthogonal addresses commute
    r1 = replace(replace(t, (1,), s), (2, 1), v("q"))
    r2 = replace(replace(t, (2, 1), v("q")), (1,), s)
    assert r1 == r2


def test_underlying_list():
    assert underlying_list(cat(v("x1"), cat(v("x2"), v("x3")))) == ["x1", "x2", "x3"]
    assert underlying_list(v("x")) == ["x"]
    t = cat(cat(v("x1"), v("x2"), v("x3")), v("x4"), v("x5"))
    assert underlying_list(t) == ["x1", "x2", "x3", "x4", "x5"]


def test_lmb():
    assert lmb(["x1", "x2", "x3"], 2) == cat(cat(v("x1"), v("x2")), v("x3"))
    assert lmb(["x1", "x2", "x3", "x4", "x5"], 3) == cat(
        cat(v("x1"), v("x2"), v("x3")), v("x4"), v("x5")
    )
    assert lmb(["x"], 2) == v("x")
    assert lmb(["x"], 5) == v("x")
    with pytest.raises(TermError):
        lmb(["x1", "x2"], 3)
    with pytest.raises(TermError):
        lmb([], 2)


def test_lmb_agrees_with_the_reference():
    # the fold against the slicing comb, errors included
    for n in range(2, 6):
        for m in range(1, 401):
            labels = [f"x{j}" for j in range(1, m + 1)]
            try:
                expected = comb_reference.lmb(labels, n)
            except TermError as error:
                with pytest.raises(TermError) as caught:
                    lmb(labels, n)
                assert str(caught.value) == str(error)
            else:
                assert lmb(labels, n) == expected
    for labels, n in (([], 2), (["x"], 1), (["x1", "x2"], 1)):
        with pytest.raises(TermError) as caught:
            lmb(labels, n)
        with pytest.raises(TermError) as expected:
            comb_reference.lmb(labels, n)
        assert str(caught.value) == str(expected.value)


def test_lmb_of_a_long_word():
    # one fold step per level: 100 001 labels make 100 000 levels, checked
    # with loops because `hash` of deep terms recurses
    names = [f"x{j}" for j in range(1, 100_002)]
    comb = lmb(names, 2)
    assert underlying_list(comb) == names
    depth, node = 0, comb
    while isinstance(node, App):
        assert len(node.children) == 2 and isinstance(node.children[1], Var)
        depth, node = depth + 1, node.children[0]
    assert (depth, node) == (100_000, Var("x1"))


def test_length_and_rank():
    assert len(underlying_list(v("x"))) == 1
    assert rank(v("x")) == 0
    assert rank(lmb([f"x{i}" for i in range(1, 8)], 3)) == 0
    assert rank(cat(v("x"), cat(v("y"), v("z")))) == 1
    # direct evaluation of the node formula: 0+0+0 + (1*1 + 2*3) - 3
    assert rank(cat(v("x1"), v("x2"), cat(v("x3"), v("x4"), v("x5")))) == 4
    assert rank(cat(v("x1"), cat(v("x2"), v("x3"), v("x4")), v("x5"))) == 2


def test_rank_zero_exactly_on_left_combs():
    for n, kmax in ((2, 4), (3, 3)):
        for k in range(kmax + 1):
            for t in enumerate_terms(n, k):
                word = underlying_list(t)
                assert (rank(t) == 0) == (t == lmb(word, n))


def test_rank_equals_total_step_drop():
    # independent oracle: rank is the sum of per-step drops along any
    # normalization path, since the normal form has rank zero
    rng = random.Random(3)
    for n in (2, 3):
        for k in range(5):
            for t in enumerate_terms(n, k):
                total = 0
                current = t
                while True:
                    redexes = assoc_redexes(current)
                    if not redexes:
                        break
                    i, addr = rng.choice(redexes)
                    total += step_rank_drop(current, i, addr)
                    current = apply_assoc(current, i, addr)
                assert total == rank(t)


def _random_term(rng, nodes: int, labels) -> Term:
    """A term with `nodes` application nodes of arities 2 to 4, its leaves
    named from `labels`."""
    if nodes == 0:
        return Var(next(labels))
    sizes = [0] * rng.randint(2, 4)
    for _ in range(nodes - 1):
        sizes[rng.randrange(len(sizes))] += 1
    return cat(*[_random_term(rng, size, labels) for size in sizes])


def test_rank_agrees_with_the_reference():
    # the leaf-by-leaf walk against the node formula, on every shape of
    # these sizes and on random terms of mixed arity
    count = 0
    for n, kmax in ((2, 8), (3, 5), (4, 4), (5, 3)):
        for k in range(kmax + 1):
            for t in enumerate_terms(n, k):
                assert rank(t) == rank_reference.rank(t)
                count += 1
    assert count == 2611
    rng = random.Random(24)
    for _ in range(300):
        labels = (f"x{j}" for j in itertools.count(1))
        t = _random_term(rng, rng.randint(0, 40), labels)
        assert rank(t) == rank_reference.rank(t)
    assert rank(T_FG) == rank_reference.rank(T_FG) == 2


def test_rank_of_a_long_right_comb():
    # one walk: 100 001 leaves take well under a second, where walking each
    # child's leaves again would take about an hour
    m = 100_001
    comb = v(f"x{m}")
    for j in range(m - 1, 0, -1):
        comb = cat(v(f"x{j}"), comb)
    assert rank(comb) == (m - 1) * (m - 2) // 2


def test_step_rank_drop_refuses_what_apply_assoc_refuses():
    t = cat(v("x"), cat(v("y"), v("z")))
    expected = {
        (5, ()): (TermError, "rule index 5 out of range for arity 2"),
        (1, (9,)): (AddressError, "no application node at (9,)"),
        (1, (1,)): (AddressError, "no application node at (1,)"),
        (1, (2,)): (TermError, "rule 1 does not apply at (2,)"),
    }
    for (i, address), (error, message) in expected.items():
        for step in (apply_assoc, step_rank_drop):
            with pytest.raises(TermError) as caught:
                step(t, i, address)
            assert (type(caught.value), str(caught.value)) == (error, message)


def test_normalize_examples():
    t = cat(v("x"), cat(v("y"), v("z")))
    normal, steps = normalize_to_lmb(t, 2)
    assert normal == cat(cat(v("x"), v("y")), v("z"))
    assert len(steps) == 1

    already = lmb(list("abcde"), 2)
    normal, steps = normalize_to_lmb(already, 2)
    assert normal == already and steps == []

    t = cat(v("x1"), cat(v("x2"), v("x3"), v("x4")), v("x5"))
    normal, steps = normalize_to_lmb(t, 3)
    assert normal == cat(cat(v("x1"), v("x2"), v("x3")), v("x4"), v("x5"))
    assert len(steps) == 1
    assert step_rank_drop(t, *steps[0]) == 2


def test_normalize_properties():
    for n, kmax in ((2, 4), (3, 3)):
        for k in range(kmax + 1):
            for t in enumerate_terms(n, k):
                normal, steps = normalize_to_lmb(t, n)
                assert underlying_list(normal) == underlying_list(t)
                assert rank(normal) == 0
                assert normal == lmb(underlying_list(t), n)
                current, r = t, rank(t)
                for i, addr in steps:
                    drop = step_rank_drop(current, i, addr)
                    current = apply_assoc(current, i, addr)
                    assert rank(current) == r - drop
                    r -= drop
                assert current == normal


def _random_nary_term(rng, nodes: int, n: int, labels) -> Term:
    """A term with `nodes` application nodes of arity n, its leaves named
    from `labels`."""
    if nodes == 0:
        return Var(next(labels))
    sizes = [0] * n
    for _ in range(nodes - 1):
        sizes[rng.randrange(n)] += 1
    return cat(*[_random_nary_term(rng, size, n, labels) for size in sizes])


def test_normal_form_steps_agree_with_the_reference():
    # the one loop against recursing down the spine and replaying each step
    # with apply_assoc, on every shape of these sizes and on random terms
    cases = [
        (t, n)
        for n, kmax in ((2, 8), (3, 5), (4, 4), (5, 3))
        for k in range(kmax + 1)
        for t in enumerate_terms(n, k)
    ]
    assert len(cases) == 2611
    rng = random.Random(25)
    for _ in range(300):
        n = rng.randint(2, 7)
        labels = (f"x{j}" for j in itertools.count(1))
        cases.append((_random_nary_term(rng, rng.randint(0, 60), n, labels), n))
    for t, n in cases:
        normal, steps, ranks = normalize_reference.trace(t, n)
        triples = normal_form_steps(t, n)
        assert [(i, address) for i, address, _ in triples] == steps
        drops = [drop for *_, drop in triples]
        assert ranks == [ranks[0] - sum(drops[:j]) for j in range(len(drops) + 1)]
        assert ranks[-1] == 0
        assert normalize_to_lmb(t, n) == (normal, steps)


def test_normalize_refuses_a_node_of_another_arity():
    # a binary node under n = 3 once raised a bare IndexError, and a
    # ternary node under n = 2 was left in the "normal form"
    x, y, z, w, u = map(v, "xyzwu")
    for t, n, arity in ((cat(x, y), 3, 2), (cat(x, cat(y, z, w), u), 2, 3)):
        for normalize in (normalize_to_lmb, normal_form_steps):
            with pytest.raises(TermError, match=f"node of arity {arity} in a term of arity {n}"):
                normalize(t, n)


def test_normalize_a_deep_comb():
    # one loop and no recursion: combs far deeper than the interpreter's
    # recursion limit normalize, and the right comb's drops sum to its rank
    m = 20_001
    right, left = v(f"x{m}"), v("x1")
    for j in range(m - 1, 0, -1):
        right = cat(v(f"x{j}"), right)
    for j in range(2, m + 1):
        left = cat(left, v(f"x{j}"))
    normal, steps = normalize_to_lmb(right, 2)
    triples = normal_form_steps(right, 2)
    assert len(steps) == len(triples) == m - 2
    assert sum(drop for *_, drop in triples) == (m - 1) * (m - 2) // 2
    assert normal == lmb(underlying_list(right), 2) == left
    normal, steps = normalize_to_lmb(left, 2)
    assert steps == [] and normal_form_steps(left, 2) == []
    assert normal == lmb(underlying_list(left), 2)


def test_normalize_strategy_independence():
    rng = random.Random(11)
    for n in (2, 3):
        for k in range(5):
            for t in enumerate_terms(n, k):
                expected = lmb(underlying_list(t), n)
                for _ in range(5):
                    current = t
                    while True:
                        redexes = assoc_redexes(current)
                        if not redexes:
                            break
                        current = apply_assoc(current, *rng.choice(redexes))
                    assert current == expected


def test_enumerate_counts():
    assert len(enumerate_terms(2, 3)) == 5
    assert len(enumerate_terms(3, 2)) == 3
    assert len(enumerate_terms(2, 0)) == 1 and enumerate_terms(2, 0) == [v("x1")]
    for n, k in [(2, 5), (3, 3), (4, 2), (2, 6), (4, 3)]:
        assert len(enumerate_terms(n, k)) == generalized_catalan(n, k)


def test_enumerate_terms_are_distinct_and_labelled_in_order():
    for n, k in [(2, 4), (3, 3)]:
        terms = enumerate_terms(n, k)
        assert len(set(terms)) == len(terms)
        labels = [f"x{j}" for j in range(1, k * (n - 1) + 2)]
        for t in terms:
            assert underlying_list(t) == labels


def test_parse_and_format_catalan():
    sig = catalan_signature(2)
    t = parse_term("(x (y z))", sig)
    assert t == cat(v("x"), cat(v("y"), v("z")))
    assert format_term(t, sig) == "(x (y z))"
    assert parse_term(format_term(t, sig), sig) == t
    with pytest.raises(ParseError):
        parse_term("(x y z)", sig)
    with pytest.raises(ParseError):
        parse_term("(x (y z)", sig)
    with pytest.raises(ParseError):
        parse_term("(x, y)", sig)


def test_parse_and_format_general():
    t = parse_term("F(w,G(x,y,z))", FG)
    assert t == T_FG
    assert format_term(t, FG) == "F(w,G(x,y,z))"
    with pytest.raises(ParseError):
        parse_term("F(x)", FG)
    with pytest.raises(ParseError):
        parse_term("H(x,y)", FG)
    with pytest.raises(ParseError):
        parse_term("F", FG)


def test_format_term_agrees_with_the_reference():
    # the spine loop against one recursion per node, on every shape of these
    # sizes and on random single-symbol and multi-symbol terms
    for n, kmax in ((2, 8), (3, 5), (4, 4)):
        signature = catalan_signature(n)
        for k in range(kmax + 1):
            for t in enumerate_terms(n, k):
                assert format_term(t, signature) == format_reference.format_term(t, signature)
    rng = random.Random(26)
    names = iter(f"x{j}" for j in itertools.count(1))
    single = catalan_signature(2)
    symbols = [("F", 2), ("G", 3), ("H", 1)]
    many = Signature(symbols)
    for _ in range(300):
        t = _random_term(rng, rng.randint(0, 30), names)
        assert format_term(t, single) == format_reference.format_term(t, single)
        t = random_term(rng, symbols, ["x", "y", "z"], rng.randint(0, 6))
        assert format_term(t, many) == format_reference.format_term(t, many)


def test_format_term_prints_a_deep_left_comb():
    leaves = [f"x{j}" for j in range(1, 20002)]
    signature = catalan_signature(2)
    assert format_term(lmb(leaves, 2), signature) == (
        "(" * 20000 + "x1" + "".join(f" {x})" for x in leaves[1:])
    )
    t = Var("x")
    for j in range(5000):
        t = App("F", (t, Var(f"y{j}")))
    text = format_term(t, Signature([("F", 2), ("G", 3)]))
    assert text == "F(" * 5000 + "x" + "".join(f",y{j})" for j in range(5000))


def test_addresses_text():
    assert parse_address("-") == ()
    assert parse_address("2.1") == (2, 1)
    assert format_address(()) == "-"
    assert format_address((2, 1)) == "2.1"
    assert format_address((("F", 2), ("G", 3))) == "2.3"
    with pytest.raises(ParseError):
        parse_address("0.1")
    with pytest.raises(ParseError):
        parse_address("a.b")
    # the root is written "-" only; an empty address is not a second spelling
    with pytest.raises(ParseError):
        parse_address("")


def test_variable_and_leaf_addresses():
    t = cat(v("x1"), cat(v("x2"), v("x3")))
    assert leaf_addresses(t) == [(1,), (2, 1), (2, 2)]
    assert variable_addresses(t, "x3") == [(2, 2)]
    assert variable_addresses(cat(v("x"), v("x")), "x") == [(1,), (2,)]


def _walker_terms():
    for n in (2, 3, 4):
        for k in range(5):
            yield from enumerate_terms(n, k)
    yield T_FG
    yield App("G", (T_FG, Var("w"), App("F", (Var("x"), T_FG))))
    yield App("F", (App("F", (Var("x"), Var("x"))), Var("y")))


def test_subterms_walk_in_address_order():
    for t in _walker_terms():
        pairs = list(subterms(t))
        addresses = [a for a, _ in pairs]
        assert addresses[0] == ()
        assert all(a < b for a, b in zip(addresses, addresses[1:]))
        assert all(u == subterm(t, a) for a, u in pairs)
        leaves = [a for a, u in pairs if isinstance(u, Var)]
        assert len(leaves) == len(underlying_list(t))
        assert set(addresses) == {a[:i] for a in leaves for i in range(len(a) + 1)}
        redexes = assoc_redexes(t)
        assert redexes == sorted(redexes, key=lambda p: (p[1], p[0]))


def test_leaf_word_queries_on_a_deep_comb():
    # one Python frame per level would pass the default recursion limit
    names = [f"x{j}" for j in range(1, 3001)]
    comb = lmb(names, 2)
    assert underlying_list(comb) == names
    assert variables_in_order(comb) == names
    assert support(comb) == frozenset(names)
    assert len(underlying_list(comb)) == 3000
    assert is_linear_pair(comb, comb)


def test_repr_of_a_deep_comb():
    # App.__repr__ is a loop at one Python frame per level, so a right comb
    # 900 levels deep has a repr under the default recursion limit
    assert repr(T_FG) == (
        "App('F', (Var('w'), App('G', (Var('x'), Var('y'), Var('z')))))"
    )
    assert repr(App("F", (Var("x"),))) == "App('F', (Var('x')))"
    comb = Var("x901")
    for j in range(900, 0, -1):
        comb = App("F", (Var(f"x{j}"), comb))
    text = repr(comb)
    assert text.startswith("App('F', (Var('x1'), App('F', (Var('x2'), App(")
    assert text.endswith("(Var('x900'), Var('x901')" + "))" * 900)


def _right_comb(depth: int, last: str) -> Term:
    """A fresh right comb over F/2, `depth` levels deep, ending in `last`."""
    comb = Var(last)
    for j in range(depth, 0, -1):
        comb = App("F", (Var(f"x{j}"), comb))
    return comb


def test_equality_of_deep_combs():
    # `==` walks an explicit stack; the dataclass's tuple comparison failed
    # on two distinct equal combs from 249 levels
    assert _right_comb(2000, "y") == _right_comb(2000, "y")
    assert _right_comb(2000, "y") != _right_comb(2000, "z")
    assert App.__eq__(_right_comb(3, "y"), Var("y")) is NotImplemented


def test_a_deep_comb_hashes_and_keys_a_dict():
    # `hash` walks an explicit stack; the dataclass's tuple hash failed on a
    # right comb from 499 levels
    keys = {_right_comb(5000, "y"): "y", _right_comb(5000, "z"): "z"}
    assert keys[_right_comb(5000, "y")] == "y"
    assert keys[_right_comb(5000, "z")] == "z"
    assert _right_comb(5000, "w") not in keys


def test_equal_terms_built_apart_hash_equal():
    for n in (2, 3, 4):
        sig = catalan_signature(n)
        for k in range(5):
            for t in enumerate_terms(n, k):
                u = parse_term(format_term(t, sig), sig)
                assert u == t and u is not t and hash(u) == hash(t)


def test_equality_agrees_with_the_structure():
    # repr spells a term's whole structure, so equal reprs are the
    # dataclass's structural equality; the copies are distinct objects
    terms = list(_walker_terms())
    terms += [apply_subst(t, {underlying_list(t)[-1]: v("q")}) for t in terms]
    terms += [Var("x1"), App("F", (Var("x1"),)), App("G", (Var("x1"),))]
    copies = [copy.deepcopy(t) for t in terms]
    spelled = [repr(t) for t in terms]
    for s, text in zip(terms, spelled):
        for t, other in zip(copies, spelled):
            assert (s == t) == (text == other) == (not s != t)


def test_signature_validation():
    with pytest.raises(TermError):
        Signature([("F", 0)])
    with pytest.raises(TermError):
        Signature([("F", 2), ("F", 3)])
    with pytest.raises(TermError):
        catalan_signature(1)


def test_error_paths_of_shapes_signatures_and_parsing():
    # each refusal with its type and message
    cases = [
        (lambda: enumerate_terms(1, 2), TermError, "tuple symbol arity must be at least 2"),
        (lambda: enumerate_terms(2, -1), TermError, "k must be nonnegative"),
        (lambda: Signature([]), TermError, "signature needs at least one symbol"),
        (lambda: Signature([("1F", 2)]), TermError, "bad symbol name: '1F'"),
        (lambda: FG.arity("H"), TermError, "unknown symbol: 'H'"),
        (lambda: parse_term("", catalan_signature(2)), ParseError, "unexpected end of term text"),
        (lambda: parse_term("F(x,G(x,y,z)", FG), ParseError, "unexpected end of term text"),
        (lambda: parse_term("F(x y)", FG), ParseError, "expected ')', found 'y'"),
    ]
    for call, error, message in cases:
        with pytest.raises(TermError) as caught:
            call()
        assert (type(caught.value), str(caught.value)) == (error, message)
