"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import math
import random
import time

from treegroups.terms import (
    apply_assoc,
    enumerate_terms,
    format_term,
    generalized_catalan,
    lmb,
    rank,
    underlying_list,
)
from treegroups.operators import (
    TranslatedRule,
    apply_operator,
    catalan_theory,
    compose,
    eval_word,
    symmetric_catalan_theory,
    translated_seed,
)
from treegroups.diagrams import (
    LEAF,
    TreeDiagram,
    identity_diagram,
    invert_diagram,
    multiply,
    reduce,
    to_diagram,
)
from treegroups.coherence import (
    apply_word_to_term,
    check_axioms,
    check_coherence,
    check_moore,
    eval_diagram,
    fill_square,
    format_word,
    hexagon,
    parse_word,
    pentagon,
    positive_paths,
    positive_steps,
    words_equal,
)

from collapse_reference import all_reduction_endpoints
from diagram_reference import expand, leaf_count, random_reduced_diagram
from normalize_reference import step_rank_drop
from seed_reference import seed_reduce
from square_reference import assoc_redexes


def report(name: str, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" {detail}" if detail else ""
    print(f"{status} {name}{extra} ({elapsed:.2f}s)")


def addresses(n, max_len):
    out = []
    for length in range(max_len + 1):
        out.extend(itertools.product(range(1, n + 1), repeat=length))
    return out


def letters(theory, max_len=2):
    out = []
    for rule in theory.rules:
        for address in addresses(theory.n, max_len):
            for forward in (True, False):
                out.append(TranslatedRule(rule, address, forward))
    return out


def test_catalan_counting():
    start = time.perf_counter()
    cases = [(2, k) for k in range(1, 7)] + [(3, k) for k in range(1, 5)] + [
        (4, k) for k in range(1, 4)
    ]
    ok = True
    for n, k in cases:
        ok = ok and len(enumerate_terms(n, k)) == generalized_catalan(n, k)
    spots = {(2, 3): 5, (2, 5): 42, (3, 3): 12, (4, 2): 4}
    for (n, k), expected in spots.items():
        ok = ok and len(enumerate_terms(n, k)) == expected
    elapsed = time.perf_counter() - start
    report("catalan-counting", ok and elapsed < 10, elapsed)
    assert ok
    assert elapsed < 10


def test_normalization():
    start = time.perf_counter()
    rng = random.Random(101)
    ok = True
    for n in (2, 3):
        for k in range(5):
            for t in enumerate_terms(n, k):
                normal = lmb(underlying_list(t), n)
                from treegroups.terms import normalize_to_lmb

                result, steps = normalize_to_lmb(t, n)
                ok = ok and result == normal
                ok = ok and rank(result) == 0
                ok = ok and underlying_list(result) == underlying_list(t)
                current, r = t, rank(t)
                for i, addr in steps:
                    drop = step_rank_drop(current, i, addr)
                    current = apply_assoc(current, i, addr)
                    ok = ok and rank(current) == r - drop
                    r -= drop
                for _ in range(20):
                    current = t
                    while True:
                        redexes = assoc_redexes(current)
                        if not redexes:
                            break
                        current = apply_assoc(current, *rng.choice(redexes))
                    ok = ok and current == normal
    elapsed = time.perf_counter() - start
    report("normalization", ok and elapsed < 30, elapsed)
    assert ok
    assert elapsed < 30


def test_operator_semantics():
    start = time.perf_counter()
    theory = catalan_theory(2)
    pool = letters(theory, max_len=2)
    seeds = {l: translated_seed(l, theory.signature) for l in pool}
    grounds = [t for k in range(6) for t in enumerate_terms(2, k)]
    mismatches = 0
    words = [()]
    for length in (1, 2, 3):
        words.extend(itertools.product(pool, repeat=length))
    for word in words:
        op = eval_word(word, theory.signature)
        word_seeds = [seeds[l] for l in word]
        for u in grounds:
            stepwise = u
            for s in word_seeds:
                stepwise = apply_operator(s, stepwise)
                if stepwise is None:
                    break
            if apply_operator(op, u) != stepwise:
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0
    report(
        "operator-semantics",
        ok and elapsed < 60,
        elapsed,
        f"words={len(words)} grounds={len(grounds)} mismatches={mismatches}",
    )
    assert ok
    assert elapsed < 60


def _all_trees(n, k):
    if k == 0:
        return [LEAF]
    out = set()
    for smaller in _all_trees(n, k - 1):
        for leaf in range(1, leaf_count(smaller) + 1):
            out.add(expand(smaller, leaf, n))
    return sorted(out)


def test_group_laws_and_reduction_canonicity():
    start = time.perf_counter()
    ok = True
    for n in (2, 3, 4):
        rng = random.Random(1000 + n)
        one = identity_diagram(n)
        pool = [random_reduced_diagram(n, rng) for _ in range(1000)]
        for d in pool:
            ok = ok and multiply(d, invert_diagram(d)) == one
            ok = ok and multiply(invert_diagram(d), d) == one
            ok = ok and multiply(one, d) == d and multiply(d, one) == d
        for _ in range(1000):
            a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            ok = ok and multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    # canonicity: exhaustive over small sizes, seeded sample up to 5 carets
    checked = 0
    for n, kmax in ((2, 3), (3, 2)):
        for k in range(kmax + 1):
            trees = _all_trees(n, k)
            m = k * (n - 1) + 1
            for t1 in trees:
                for t2 in trees:
                    for perm in itertools.permutations(range(1, m + 1)):
                        d = TreeDiagram(n, t1, t2, perm)
                        ok = ok and all_reduction_endpoints(d) == {reduce(d)}
                        checked += 1
    for n in (2, 3):
        rng = random.Random(2000 + n)
        for _ in range(300):
            k = rng.randint(4, 5)
            t1, t2 = LEAF, LEAF
            for _ in range(k):
                t1 = expand(t1, rng.randint(1, leaf_count(t1)), n)
                t2 = expand(t2, rng.randint(1, leaf_count(t2)), n)
            perm = list(range(1, k * (n - 1) + 2))
            rng.shuffle(perm)
            d = TreeDiagram(n, t1, t2, tuple(perm))
            ok = ok and all_reduction_endpoints(d) == {reduce(d)}
            checked += 1
    elapsed = time.perf_counter() - start
    report(
        "group-laws-and-reduction",
        ok and elapsed < 60,
        elapsed,
        f"canonicity diagrams={checked}",
    )
    assert ok
    assert elapsed < 60


def test_theta_homomorphism_and_faithfulness():
    start = time.perf_counter()
    ok = True
    for n in (2, 3):
        for theory in (catalan_theory(n), symmetric_catalan_theory(n)):
            seeds = [translated_seed(l, theory.signature) for l in letters(theory)]
            images = [to_diagram(s, n) for s in seeds]
            for s1, d1 in zip(seeds, images):
                for s2, d2 in zip(seeds, images):
                    ok = ok and to_diagram(compose(s1, s2), n) == multiply(d1, d2)

    # faithfulness shadow: group-normalized seeds biject with reduced diagrams
    theory = catalan_theory(2)
    pool = letters(theory, max_len=2)
    words = [()]
    for length in (1, 2, 3):
        words.extend(itertools.product(pool, repeat=length))
    by_seed = {}
    by_diagram = {}
    for word in words:
        op = eval_word(word, theory.signature)
        normal = seed_reduce(op)
        diagram = to_diagram(op, 2)
        if normal in by_seed:
            ok = ok and by_seed[normal] == diagram
        else:
            by_seed[normal] = diagram
        if diagram in by_diagram:
            ok = ok and by_diagram[diagram] == normal
        else:
            by_diagram[diagram] = normal
    ok = ok and len(by_seed) == len(by_diagram)
    elapsed = time.perf_counter() - start
    report(
        "theta-homomorphism-and-faithfulness",
        ok and elapsed < 60,
        elapsed,
        f"distinct-elements={len(by_seed)}",
    )
    assert ok
    assert elapsed < 60


def test_axiom_soundness():
    start = time.perf_counter()
    ok = True
    counts = {}
    for n in (2, 3, 4):
        passed, lines = check_axioms(n, "sc", max_addr=2)
        ok = ok and passed
        counts[n] = len(lines)
    # the binary cases are the classical pentagon and hexagon, letter for letter
    p = pentagon(2, 1)
    ok = ok and format_word(p.lhs) == "a1[2] a1[-] a1[1]"
    ok = ok and format_word(p.rhs) == "a1[-] a1[-]"
    h = hexagon(2, 1)
    ok = ok and format_word(h.lhs) == "s1[-] a1[-] s1[1]"
    ok = ok and format_word(h.rhs) == "A1[-] s1[2] a1[-]"
    elapsed = time.perf_counter() - start
    report(
        "axiom-soundness",
        ok and elapsed < 120,
        elapsed,
        f"instances={sum(counts.values())}",
    )
    assert ok
    assert elapsed < 120


def test_coherence_desk_scale():
    start = time.perf_counter()
    ok = True
    squares = 0
    paths_total = 0
    for n in (2, 3):
        theory = catalan_theory(n)
        expected = []
        for k in range(5):
            for t in enumerate_terms(n, k):
                letters_here = positive_steps(t, theory)
                pairs = 0
                for m1, m2 in itertools.combinations(letters_here, 2):
                    w1, w2, family = fill_square(t, theory, m1, m2)
                    squares += 1
                    pairs += 1
                    ok = ok and family in (
                        "functoriality",
                        "naturality",
                        "pentagon",
                        "adjacent-assoc",
                    )
                    end1 = apply_word_to_term(t, (m1,) + w1, theory)
                    end2 = apply_word_to_term(t, (m2,) + w2, theory)
                    ok = ok and end1 is not None and end1 == end2
                    ok = ok and words_equal((m1,) + w1, (m2,) + w2, n, "c")
                all_paths = positive_paths(t, n)
                paths_total += len(all_paths)
                normal = lmb(underlying_list(t), n)
                endpoints = {
                    apply_word_to_term(t, path, theory) for path in all_paths
                }
                images = {eval_diagram(path, n, "c") for path in all_paths}
                ok = ok and endpoints == {normal} and len(images) == 1
                expected.append(
                    f"coherence n={n} term={format_term(t, theory.signature)} "
                    f"pairs={pairs} paths={len(all_paths)} PASS"
                )
        # the check visits each term once; its report must agree with the
        # enumeration of every path above
        passed, lines = check_coherence(n, 4)
        ok = ok and passed and lines == expected
    elapsed = time.perf_counter() - start
    report(
        "coherence-desk-scale",
        ok and elapsed < 300,
        elapsed,
        f"squares={squares} paths={paths_total}",
    )
    assert ok
    assert elapsed < 300


def test_moore_relations():
    start = time.perf_counter()
    ok = True
    for n in (2, 3, 4, 5):
        passed, lines = check_moore(n)
        ok = ok and passed
        ok = ok and any(
            f"closure={math.factorial(n)} expected={math.factorial(n)} PASS" in line
            for line in lines
        )
    elapsed = time.perf_counter() - start
    report("moore-relations", ok and elapsed < 30, elapsed)
    assert ok
    assert elapsed < 30


def test_f_sanity():
    # Conjugation is written classically (apply the rightmost factor first);
    # in this package's left-to-right product the classical x0^-1 x1 x0 is
    # multiply(multiply(X0, X1), X0^-1).
    start = time.perf_counter()
    X0 = eval_diagram(parse_word("a1[-]"), 2, "c")
    X1 = eval_diagram(parse_word("a1[2]"), 2, "c")
    X2 = eval_diagram(parse_word("a1[2.2]"), 2, "c")
    X3 = eval_diagram(parse_word("a1[2.2.2]"), 2, "c")

    def conjugate_down(g):  # classical x0^-1 g x0
        return multiply(multiply(X0, g), invert_diagram(X0))

    ok = conjugate_down(X1) == X2
    ok = ok and conjugate_down(X2) == X3

    # classical words read right to left: x0 x1^-1 applies x1^-1 first
    a = multiply(invert_diagram(X1), X0)
    for b in (X2, X3):
        ok = ok and multiply(a, b) == multiply(b, a)
    elapsed = time.perf_counter() - start
    report("f-sanity", ok, elapsed)
    assert ok
