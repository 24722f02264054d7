import itertools
import random

from treegroups.terms import (
    App,
    Var,
    apply_subst,
    cat,
    enumerate_terms,
    support,
    underlying_list,
)
from treegroups.unify import is_composable, match, mgu
from treegroups.operators import catalan_theory, symmetric_catalan_theory

from subst_reference import match_many


def v(name):
    return Var(name)


def test_match_examples():
    phi = match(cat(v("x1"), cat(v("x2"), v("x3"))), cat(v("a"), cat(cat(v("b"), v("c")), v("d"))))
    assert phi == {"x1": v("a"), "x2": cat(v("b"), v("c")), "x3": v("d")}
    assert match(v("x"), cat(v("a"), v("b"))) == {"x": cat(v("a"), v("b"))}
    assert match(cat(v("x"), v("x")), cat(v("a"), v("b"))) is None
    assert match(cat(v("x"), v("x")), cat(v("a"), v("a"))) == {"x": v("a")}
    assert match(cat(v("x"), v("y")), v("a")) is None


def test_match_many():
    pairs = [(v("x"), v("a")), (cat(v("x"), v("y")), cat(v("a"), v("b")))]
    assert match_many(pairs) == {"x": v("a"), "y": v("b")}
    assert match_many([(v("x"), v("a")), (v("x"), v("b"))]) is None


def test_mgu_example():
    pair = mgu(cat(v("x"), v("y")), cat(cat(v("a"), v("b")), v("c")))
    assert pair is not None
    assert pair.left == {"x": cat(v("a"), v("b")), "y": v("c")}
    assert pair.right == {}


def test_mgu_variable_variable():
    pair = mgu(v("x"), v("x_prime"))
    assert pair is not None
    assert apply_subst(v("x"), pair.left) == apply_subst(v("x_prime"), pair.right)


def test_mgu_head_clash():
    sig_terms = App("F", (v("x"), v("y"))), App("G", (v("x"), v("y"), v("z")))
    assert mgu(*sig_terms) is None
    assert mgu(App("F", (v("x"), v("y"))), App("G2", (v("x"), v("y")))) is None


def test_mgu_soundness_and_idempotence():
    rng = random.Random(5)
    shapes = [t for k in range(4) for t in enumerate_terms(2, k)]
    pool = ["x", "y", "z", "w"]
    for _ in range(300):
        t1 = relabel(rng.choice(shapes), rng, pool)
        s2 = relabel(rng.choice(shapes), rng, pool)
        pair = mgu(t1, s2)
        if pair is None:
            continue
        left = apply_subst(t1, pair.left)
        right = apply_subst(s2, pair.right)
        assert left == right
        assert apply_subst(left, pair.left) == left
        assert apply_subst(right, pair.right) == right


def relabel(shape, rng, pool):
    word = underlying_list(shape)
    mapping = {name: v(rng.choice(pool)) for name in word}
    return apply_subst(shape, mapping)


def test_occurs_check():
    # within one side: x meets y, so y meets a term properly containing y
    assert mgu(cat(v("x"), v("x")), cat(v("y"), cat(v("y"), v("z")))) is None
    # renamed apart, the same spelling on the two sides is unrelated
    assert mgu(v("x"), cat(v("x"), v("y"))) is not None


def test_rename_apart_same_spelling():
    pair = mgu(cat(v("x"), v("y")), cat(v("y"), v("x")))
    assert pair is not None
    assert apply_subst(cat(v("x"), v("y")), pair.left) == apply_subst(
        cat(v("y"), v("x")), pair.right
    )


def test_mgu_most_general_against_ground_enumeration():
    # every ground unifier over a two-element ground set factors through the
    # mgu; exhaustive over shapes with at most two internal nodes, repeated
    # labels allowed
    ground = [v("g1"), v("g2")]
    shapes = [t for k in range(3) for t in enumerate_terms(2, k)]
    pool = ["x", "y"]
    sides = []
    for shape in shapes:
        word = underlying_list(shape)
        for labels in itertools.product(pool, repeat=len(word)):
            sides.append(apply_subst(shape, {w: v(l) for w, l in zip(word, labels)}))
    sides = list(dict.fromkeys(sides))
    for t1 in sides:
        for s2 in sides:
            pair = mgu(t1, s2)
            vars1 = sorted(support(t1))
            vars2 = sorted(support(s2))
            for assign1 in itertools.product(ground, repeat=len(vars1)):
                phi = dict(zip(vars1, assign1))
                for assign2 in itertools.product(ground, repeat=len(vars2)):
                    psi = dict(zip(vars2, assign2))
                    if apply_subst(t1, phi) != apply_subst(s2, psi):
                        continue
                    assert pair is not None, "ground unifier exists but mgu failed"
                    # factor: a single delta maps the mgu instance onto this one
                    pattern_pairs = [
                        (apply_subst(v(x), pair.left), phi[x]) for x in vars1
                    ] + [(apply_subst(v(y), pair.right), psi[y]) for y in vars2]
                    assert match_many(pattern_pairs) is not None


def test_mgu_deeper_spot_checks():
    # a couple of three-internal-node cases on top of the exhaustive sweep
    t1 = cat(cat(v("x"), v("y")), cat(v("x"), v("z")))
    s2 = cat(v("u"), cat(cat(v("a"), v("b")), v("c")))
    pair = mgu(t1, s2)
    assert pair is not None
    assert apply_subst(t1, pair.left) == apply_subst(s2, pair.right)
    # mutual nesting across the two sides trips the occurs check
    assert mgu(cat(v("x"), cat(v("x"), v("y"))), cat(cat(v("a"), v("b")), v("a"))) is None


def test_is_composable():
    for n in (2, 3, 4):
        assert is_composable(catalan_theory(n).equations())
        assert is_composable(symmetric_catalan_theory(n).equations())
    f_xy = App("F", (v("x"), v("y")))
    g_yx = App("G", (v("y"), v("x")))
    assert not is_composable([(f_xy, g_yx)])


def test_match_refuses_a_head_clash():
    # same arity, different symbols, at the root and below it
    assert match(App("F", (v("x"), v("y"))), App("H", (v("a"), v("b")))) is None
    inner = App("F", (v("x"), App("G", (v("y"), v("z")))))
    assert match(inner, App("F", (v("a"), App("H", (v("b"), v("c")))))) is None
    assert match(inner, App("F", (v("a"), App("G", (v("b"), v("c")))))) is not None
