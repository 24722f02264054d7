import gc
import itertools
import json
import random

import pytest

from treegroups.terms import TermError, Var, cat, enumerate_terms
from treegroups.operators import (
    EMPTY,
    Seed,
    TranslatedRule,
    translated_seed,
)
from treegroups.coherence import (
    _act_word,
    catalan_theory,
    eval_diagram,
    symmetric_catalan_theory,
)
from treegroups.diagrams import (
    LEAF,
    TreeDiagram,
    TreePair,
    from_json_dict,
    identity_diagram,
    invert_diagram,
    is_order_preserving,
    multiply,
    reduce,
    to_diagram,
    to_dot,
    to_json,
    to_json_dict,
    tree_of_term,
)

import collapse_reference
from collapse_reference import (
    all_reduction_endpoints,
    is_reduced,
    partner_reduce,
    reducible_pairs,
)
from diagram_reference import (
    caret,
    diagram_power,
    expand,
    expand_diagram,
    leaf_count,
    leaves,
    random_diagram,
    random_reduced_diagram,
)
from test_seed_path import random_word


def v(name):
    return Var(name)


R3 = (LEAF, (LEAF, LEAF))  # leaf then caret
L3 = ((LEAF, LEAF), LEAF)  # caret then leaf
X0 = TreeDiagram(2, R3, L3, (1, 2, 3))


def test_leaves():
    assert leaves(LEAF) == ((),)
    assert leaves(caret(2)) == ((1,), (2,))
    assert leaves(((LEAF, LEAF), LEAF)) == ((1, 1), (1, 2), (2,))


def test_expand():
    assert expand(LEAF, 1, 2) == caret(2)
    assert leaves(expand(caret(2), 2, 2)) == ((1,), (2, 1), (2, 2))
    t = LEAF
    for _ in range(3):
        t = expand(t, 1, 3)
    assert leaf_count(t) == 7
    full = caret(3)
    for index in (3, 2, 1):
        full = expand(full, index, 3)
    assert leaf_count(full) == 9
    with pytest.raises(TermError):
        expand(LEAF, 2, 2)


def test_expand_diagram_identity():
    d = identity_diagram(2)
    e = expand_diagram(d, 1)
    assert e.domain == e.range == caret(2)
    assert e.perm == (1, 2)


def test_expand_diagram_swap():
    swap = TreeDiagram(2, caret(2), caret(2), (2, 1))
    e = expand_diagram(swap, 1)
    assert leaves(e.domain) == ((1, 1), (1, 2), (2,))
    assert leaves(e.range) == ((1,), (2, 1), (2, 2))
    assert e.perm == (2, 3, 1)
    assert leaf_count(e.domain) - leaf_count(swap.domain) == 1  # n - 1 for n = 2
    e3 = expand_diagram(TreeDiagram(3, caret(3), caret(3), (3, 1, 2)), 2)
    assert leaf_count(e3.domain) - 3 == 2


def test_reduce_examples():
    t = expand(expand(caret(2), 1, 2), 3, 2)
    ident = TreeDiagram(2, t, t, tuple(range(1, leaf_count(t) + 1)))
    assert reduce(ident) == identity_diagram(2)
    assert reduce(X0) == X0 and is_reduced(X0)
    swap = TreeDiagram(2, caret(2), caret(2), (2, 1))
    assert reduce(swap) == swap


def test_reduce_undoes_expansion():
    rng = random.Random(9)
    for n in (2, 3):
        for _ in range(80):
            d = random_reduced_diagram(n, rng, max_carets=4)
            for leaf in range(1, leaf_count(d.domain) + 1):
                assert reduce(expand_diagram(d, leaf)) == d


def test_reduction_orders_agree_small():
    rng = random.Random(13)
    for n in (2, 3):
        for _ in range(60):
            d = random_diagram(n, rng, max_carets=4)
            assert all_reduction_endpoints(d) == {reduce(d)}


def test_multiply_examples():
    d = random_reduced_diagram(2, random.Random(1))
    assert multiply(d, invert_diagram(d)) == identity_diagram(2)
    assert multiply(identity_diagram(2), d) == d
    assert multiply(d, identity_diagram(2)) == d
    square = multiply(X0, X0)
    assert square.domain == (LEAF, (LEAF, (LEAF, LEAF)))
    assert square.range == (((LEAF, LEAF), LEAF), LEAF)
    assert square.perm == (1, 2, 3, 4)


def test_multiply_arity_mismatch():
    with pytest.raises(TermError):
        multiply(identity_diagram(2), identity_diagram(3))


def test_group_laws_random():
    rng = random.Random(21)
    for n in (2, 3):
        pool = [random_reduced_diagram(n, rng) for _ in range(60)]
        one = identity_diagram(n)
        for d in pool:
            assert multiply(d, invert_diagram(d)) == one
            assert multiply(invert_diagram(d), d) == one
            assert multiply(one, d) == d
        for _ in range(60):
            a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
            # unreduced factors, as from_json_dict can pass them
            i = rng.randint(1, leaf_count(a.domain))
            assert multiply(expand_diagram(a, i), b) == multiply(a, b)
            j = rng.randint(1, leaf_count(b.domain))
            assert multiply(a, expand_diagram(b, j)) == multiply(a, b)


def test_reduce_matches_the_partner_address_reference():
    rng = random.Random(17)
    for n in (2, 3, 4):
        for _ in range(60):
            d = random_diagram(n, rng, max_carets=8)
            assert reduce(d) == partner_reduce(d)
            d = partner_reduce(d)
            for _ in range(rng.randint(0, 10)):  # up to 55 leaves at n = 4
                d = expand_diagram(d, rng.randint(1, leaf_count(d.domain)))
            assert reduce(d) == partner_reduce(d)
        # products and evaluations come out reduced
        for _ in range(30):
            a, b = random_reduced_diagram(n, rng), random_reduced_diagram(n, rng)
            product = multiply(expand_diagram(a, 1), b)
            assert partner_reduce(product) == product
        for theory_name in ("c", "sc"):
            for length in (0, 1, 2, 5, 13, 40):
                word = random_word(rng, n, theory_name, length, max_depth=3)
                d = eval_diagram(word, n, theory_name)
                assert partner_reduce(d) == d


def _every_diagram(n: int, max_carets: int):
    for k in range(max_carets + 1):
        trees = [tree_of_term(t) for t in enumerate_terms(n, k)]
        for domain, range_ in itertools.product(trees, repeat=2):
            for perm in itertools.permutations(range(1, k * (n - 1) + 2)):
                yield TreeDiagram(n, domain, range_, perm)


def test_the_exposed_caret_scan_agrees_with_the_pair_and_the_reference():
    # `reduce` returns its input itself exactly when its scan finds no
    # exposed domain caret sent in order onto an exposed range caret
    every = [*_every_diagram(2, 3), *_every_diagram(3, 2)]
    assert len(every) == 1714
    verdicts = [not reducible_pairs(d) for d in every]
    for d, reduced in zip(every, verdicts):
        assert (reduce(d) is d) == reduced == (TreePair(d).freeze() == d)
    assert 0 < sum(verdicts) < len(every)
    rng = random.Random(31)
    for n in (2, 3, 4):
        for _ in range(60):
            d = random_reduced_diagram(n, rng, max_carets=6)
            assert is_reduced(d) and reduce(d) is d
            e = d
            for _ in range(rng.randint(1, 4)):
                e = expand_diagram(e, rng.randint(1, leaf_count(e.domain)))
            assert not is_reduced(e) and TreePair(e).freeze() != e
            assert reduce(e) is not e and reduce(e) == d


def _acted_pair(start: TreeDiagram, word, other) -> TreePair:
    pair = TreePair(start)
    _act_word(pair, word)
    if other is not None:
        pair.act(other)
    return pair


def test_freeze_matches_the_shared_walker_reference():
    # letters of both theories acting on the identity, a diagram acting on
    # another, and a diagram's own pair, each built twice
    rng = random.Random(37)
    for n in (2, 3, 4):
        one, cases = identity_diagram(n), []
        for theory_name in ("c", "sc"):
            for length in (0, 1, 2, 5, 13, 40):
                cases.append((one, random_word(rng, n, theory_name, length, 3), None))
        for _ in range(30):
            a, b = random_diagram(n, rng), random_diagram(n, rng)
            cases += [(a, (), b), (a, (), None)]
        for case in cases:
            pair, twin = _acted_pair(*case), _acted_pair(*case)
            assert pair.freeze() == collapse_reference.freeze(twin)
            assert pair.split == twin.split


def test_tree_pair_round_trip():
    rng = random.Random(5)
    for n in (2, 3):
        for _ in range(60):
            d = random_reduced_diagram(n, rng)
            for _ in range(rng.randint(0, 3)):  # unreduced, as JSON can pass
                d = expand_diagram(d, rng.randint(1, leaf_count(d.domain)))
            reduced = partner_reduce(d)
            assert TreePair(d).freeze() == reduced
            pair = TreePair(d)
            pair.act(identity_diagram(n))
            assert pair.freeze() == reduced
            # a pair acted on twice freezes to the product of its reduced parts
            e = random_reduced_diagram(n, rng)
            pair = TreePair(d)
            pair.act(identity_diagram(n))
            pair.act(e)
            assert pair.freeze() == multiply(reduced, e)


def test_freeze_keeps_an_untouched_domain():
    # a reduced diagram's inverse swaps its trees: `reduce` finds nothing to
    # collapse and returns it, and freeze, which carets nothing and collapses
    # nothing, returns the input's own domain tuple too
    rng = random.Random(29)
    for _ in range(1000):
        d = random_reduced_diagram(rng.choice((2, 3, 4)), rng, max_carets=5)
        inverse_perm = [0] * len(d.perm)
        for i, y in enumerate(d.perm, start=1):
            inverse_perm[y - 1] = i
        inverse = invert_diagram(d)
        assert inverse == TreeDiagram(d.n, d.range, d.domain, tuple(inverse_perm))
        assert inverse.domain is d.range
        assert TreePair(inverse).freeze().domain is d.range
        assert invert_diagram(inverse) == d


def test_freeze_after_one_caret_and_one_collapse():
    # b's domain carets a's range leaf 3, so a's domain leaf 1; the product
    # (3, 4, 2, 1) then (3, 2, 4, 1) sends domain leaves 3 and 4 to the
    # sibling range leaves 2 and 3, which collapse with a's caret at
    # address 2.  The caret count is back where it started, the domain not.
    a = TreeDiagram(2, (LEAF, caret(2)), (caret(2), LEAF), (3, 2, 1))
    b = TreeDiagram(2, (caret(2), caret(2)), ((LEAF, caret(2)), LEAF), (3, 2, 4, 1))
    pair = TreePair(a)
    pair.act(b)
    assert len(pair.split) == pair.carets + 1
    product = pair.freeze()
    assert len(pair.split) == pair.carets
    assert product == TreeDiagram(2, (caret(2), LEAF), (caret(2), LEAF), (3, 1, 2))
    assert multiply(a, b) == product


def test_trusted_results_equal_their_checked_twins():
    rng = random.Random(8)
    for n in (2, 3):
        for _ in range(40):
            a, b = random_reduced_diagram(n, rng), random_reduced_diagram(n, rng)
            for d in (multiply(a, b), invert_diagram(a), TreePair(a).freeze()):
                twin = TreeDiagram(d.n, d.domain, d.range, d.perm)
                assert d == twin and hash(d) == hash(twin)


def test_identity_diagram_refuses_a_bad_arity_and_equals_its_checked_twin():
    for n in (1, True, 2.0):
        with pytest.raises(TermError) as info:
            identity_diagram(n)
        assert str(info.value) == f"diagram arity must be an integer >= 2, not {n!r}"
    for n in (2, 3, 7):
        one, twin = identity_diagram(n), TreeDiagram(n, (), (), (1,))
        assert one == twin and hash(one) == hash(twin)


def test_is_order_preserving():
    assert is_order_preserving(identity_diagram(2))
    assert not is_order_preserving(TreeDiagram(2, caret(2), caret(2), (2, 1)))
    assert is_order_preserving(X0)


def test_tree_of_term():
    assert tree_of_term(v("x")) == LEAF
    assert tree_of_term(cat(v("x"), cat(v("y"), v("z")))) == R3
    t = cat(cat(v("a"), v("b")), cat(v("c"), v("d")))
    assert leaf_count(tree_of_term(t)) == 4


def test_to_diagram_examples():
    c2 = catalan_theory(2)
    alpha = translated_seed(TranslatedRule(c2.rule("a1")), c2.signature)
    assert to_diagram(alpha, 2) == X0
    sc2 = symmetric_catalan_theory(2)
    twist = translated_seed(TranslatedRule(sc2.rule("s1")), sc2.signature)
    assert to_diagram(twist, 2) == TreeDiagram(2, caret(2), caret(2), (2, 1))
    assert to_diagram(Seed(v("x1"), v("x1")), 2) == identity_diagram(2)


def test_to_diagram_rejects_bad_input():
    with pytest.raises(TermError):
        to_diagram(EMPTY, 2)
    with pytest.raises(TermError):
        to_diagram(Seed(cat(v("x"), v("x")), cat(v("x"), v("x"))), 2)


def test_diagram_power():
    swap = TreeDiagram(2, caret(2), caret(2), (2, 1))
    assert diagram_power(swap, 2) == identity_diagram(2)
    assert diagram_power(swap, -1) == swap
    assert diagram_power(X0, 0) == identity_diagram(2)


def test_json_round_trip():
    d = multiply(X0, X0)
    data = to_json_dict(d)
    assert data == {
        "n": 2,
        "domain": [0, [0, [0, 0]]],
        "range": [[[0, 0], 0], 0],
        "perm": [1, 2, 3, 4],
    }
    assert from_json_dict(json.loads(to_json(d))) == d
    rng = random.Random(2)
    for n in (2, 3, 4):
        for _ in range(20):
            d = random_reduced_diagram(n, rng)
            assert from_json_dict(json.loads(to_json(d))) == d


def test_json_round_trip_of_a_deep_diagram():
    # the JSON walks take one frame per level: 900 levels fit the default
    # recursion limit
    comb = LEAF
    for _ in range(900):
        comb = (LEAF, comb)
    d = TreeDiagram(2, comb, comb, tuple(range(1, 902)))
    assert from_json_dict(to_json_dict(d)) == d


def test_dot_export():
    swap = TreeDiagram(2, caret(2), caret(2), (2, 1))
    dot = to_dot(swap)
    assert dot.startswith("graph tree_diagram {")
    assert "cluster_domain" in dot and "cluster_range" in dot
    assert dot.count("style=dashed") == 2
    assert "d_1 -- r_2" in dot


def test_dot_export_golden():
    # node ids name the path from the root; each edge follows its subtree
    d = TreeDiagram(2, (caret(2), LEAF), (LEAF, caret(2)), (2, 3, 1))
    assert to_dot(d) == """graph tree_diagram {
  subgraph cluster_domain {
    label="domain";
    d [shape=point];
    d_1 [shape=point];
    d_1_1 [shape=box, label="1"];
    d_1 -- d_1_1;
    d_1_2 [shape=box, label="2"];
    d_1 -- d_1_2;
    d -- d_1;
    d_2 [shape=box, label="3"];
    d -- d_2;
  }
  subgraph cluster_range {
    label="range";
    r [shape=point];
    r_1 [shape=box, label="1"];
    r -- r_1;
    r_2 [shape=point];
    r_2_1 [shape=box, label="2"];
    r_2 -- r_2_1;
    r_2_2 [shape=box, label="3"];
    r_2 -- r_2_2;
    r -- r_2;
  }
  d_1_1 -- r_2_1 [style=dashed, constraint=false];
  d_1_2 -- r_2_2 [style=dashed, constraint=false];
  d_2 -- r_1 [style=dashed, constraint=false];
}
"""


def test_no_cyclic_garbage():
    # the walks are module functions and methods, not self-recursive
    # closures, so what they build is freed by reference count
    rng = random.Random(31)
    pool = [random_reduced_diagram(2, rng) for _ in range(100)]
    expanded = [expand_diagram(d, 1) for d in pool]
    words = [random_word(rng, 2, "sc", 6, max_depth=3) for _ in range(100)]
    eval_diagram(words[0], 2, "sc")  # fills the theory cache
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for a, b, c, word in zip(pool, pool[1:] + pool[:1], expanded, words):
            multiply(a, b)
            invert_diagram(a)
            reduce(c)
            eval_diagram(word, 2, "sc")
            to_dot(a)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_diagram_validation():
    with pytest.raises(TermError):
        TreeDiagram(2, caret(2), LEAF, (1, 2))
    with pytest.raises(TermError):
        TreeDiagram(2, caret(2), caret(2), (1, 1))
    with pytest.raises(TermError):
        TreeDiagram(3, caret(2), caret(2), (1, 2))
    for n in (1, 0, -3, True):
        with pytest.raises(TermError):
            TreeDiagram(n, LEAF, LEAF, (1,))
    # a perm is a tuple of ints: a list is unhashable, floats do not survive
    # JSON, and a bool is not an index
    for perm in ([2, 1], (2.0, 1.0), (2.0, True)):
        with pytest.raises(TermError):
            TreeDiagram(2, caret(2), caret(2), perm)
    deep = 0
    for _ in range(1500):
        deep = [deep, 0]
    for data in (
        {},
        {"n": 2, "domain": 0, "range": 0},
        {"n": 2, "domain": 5, "range": 0, "perm": [1]},
        {"n": 2, "domain": deep, "range": deep, "perm": list(range(1, 1502))},
        {"n": 2, "domain": False, "range": 0, "perm": [1]},
        {"n": 2, "domain": 0, "range": 0.0, "perm": [1]},
        {"n": 2, "domain": 0, "range": 0, "perm": [True]},
        {"n": True, "domain": 0, "range": 0, "perm": [1]},
        {"n": 2, "domain": [], "range": 0, "perm": [1]},
        {"n": 2, "domain": [[], [0, 0]], "range": [[0, 0], 0], "perm": [1, 2, 3]},
    ):
        with pytest.raises(TermError):
            from_json_dict(data)


def test_diagram_refuses_a_tree_node_that_is_not_a_tuple():
    for domain in ([LEAF, LEAF], (LEAF, [LEAF, LEAF])):
        with pytest.raises(TermError) as caught:
            TreeDiagram(2, domain, caret(2), (1, 2))
        assert str(caught.value) == "tree node of type list, not a tuple"


def test_json_diagram_with_one_fault_names_it():
    # from_json_dict reads, arity-checks and counts each tree in one walk;
    # an input with one fault gets the message the public constructor or
    # the JSON reader gives for that fault.
    good = {"n": 2, "domain": [[0, 0], 0], "range": [0, [0, 0]], "perm": [3, 1, 2]}
    deep = 0
    for _ in range(1500):
        deep = [deep, 0]
    for change, message in (
        ({"n": 2.0}, "a JSON diagram needs an integer n and a list perm"),
        ({"perm": (3, 1, 2)}, "a JSON diagram needs an integer n and a list perm"),
        ({"n": 1}, "diagram arity must be an integer >= 2, not 1"),
        ({"n": -3}, "diagram arity must be an integer >= 2, not -3"),
        ({"domain": [[5, 0], 0]}, "a JSON tree is 0 or a list of trees, not int"),
        ({"domain": [[False, 0], 0]}, "a JSON tree is 0 or a list of trees, not bool"),
        ({"range": [0, [0, 0.0]]}, "a JSON tree is 0 or a list of trees, not float"),
        ({"domain": [[0, 0], []]}, "a JSON tree is 0 or a non-empty list of trees, not []"),
        ({"domain": [[0, 0, 0], 0]}, "node with 3 children in an arity-2 tree"),
        ({"domain": [[0], 0]}, "node with 1 children in an arity-2 tree"),
        ({"range": [0, [0, 0], 0]}, "node with 3 children in an arity-2 tree"),
        ({"range": [0, [0, [0, 0]]]}, "domain and range leaf counts differ"),
        ({"domain": deep, "range": deep, "perm": list(range(1, 1502))},
         "a JSON diagram's tree is nested too deeply"),
        ({"perm": [3, 1, 2.0]}, "perm must be a tuple of integers"),
        ({"perm": [3, True, 2]}, "perm must be a tuple of integers"),
        ({"perm": [3, 1, 1]}, "perm is not a bijection on the leaf indices"),
        ({"perm": [4, 1, 2]}, "perm is not a bijection on the leaf indices"),
    ):
        with pytest.raises(TermError) as fault:
            from_json_dict({**good, **change})
        assert str(fault.value) == message
    d = from_json_dict(good)
    assert d == TreeDiagram(2, ((LEAF, LEAF), LEAF), (LEAF, (LEAF, LEAF)), (3, 1, 2))
