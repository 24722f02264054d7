"""Seeded inputs for the benchmark workloads, and their known answers.

Every answer here comes from how an input is built, never from running the
library: word pairs are equal or unequal by construction, suite report sizes
come from closed forms, and a product chain that is unwound ends at the
identity.  This module imports nothing from `treegroups`.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORDS_LONG = "words-long"
CHECK_SUITES = "check-suites"
DIAGRAM_PRODUCTS = "diagram-products"
WORKLOADS = (WORDS_LONG, CHECK_SUITES, DIAGRAM_PRODUCTS)

# words-long: one word pair per length, for each n and theory.  Each row
# has three short pairs, a middle tier of five pairs and a tail tier of
# three pairs whose lengths cost the seed evaluator about the same in every
# row, and one longest pair.  item_ms_p50 falls inside the middle tier and
# the item_ms_tail rank inside the tail tier, so neither hinges on one
# random word.
WORD_LENGTHS = {
    (2, "c"): (8, 12, 16) + (32,) * 5 + (56,) * 3 + (144,),
    (2, "sc"): (8, 12, 16) + (36,) * 5 + (64,) * 3 + (160,),
    (3, "c"): (6, 8, 12) + (22,) * 5 + (36,) * 3 + (80,),
    (3, "sc"): (6, 8, 12) + (24,) * 5 + (44,) * 3 + (96,),
    (4, "c"): (4, 6, 8) + (16,) * 5 + (28,) * 3 + (56,),
    (4, "sc"): (4, 6, 8) + (18,) * 5 + (36,) * 3 + (64,),
}
THEORIES = ("c", "sc")
MAX_ADDRESS_DEPTH = 3
PAIR_KINDS = ("equal-cancel", "unequal", "equal-swap", "unequal")

# diagram-products: (n, diagrams per chain, carets per diagram, checkpoint
# spacing), one entry per chain.  An item is one chain: the largest single
# product steps depend on a few random walks, so a per-step tail would swing
# with the seed, while sums over whole chains do not.  Many short chains
# keep a pass near 200 MB RSS on the seed code, whose leaf caches keep every
# tree they have seen.
CHAINS = ((2, 7, 5, 2), (3, 5, 5, 2)) * 180

# check-suites: family instances per base address, by theory (closed forms
# from the index ranges of each relation family).
_CATALAN_FAMILY_SIZES = (
    lambda n: n - 1,  # pentagon
    lambda n: n - 2,  # adjacent associativity
)
_SYMMETRIC_FAMILY_SIZES = _CATALAN_FAMILY_SIZES + (
    lambda n: n - 1,  # involution
    lambda n: (n - 1) * (n - 2),  # compatibility
    lambda n: n - 2,  # three-cycle
    lambda n: n - 1,  # hexagon
    lambda n: n - 1,  # dual hexagon
)


def make_items(workload: str, seed: int) -> list:
    """The workload's fixed item set: dicts with the program's "input" and
    the "expect"ed answer.  The same seed gives the same items; the suites
    of check-suites do not depend on it."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == WORDS_LONG:
        return _word_items(rng)
    if workload == CHECK_SUITES:
        return _suite_items()
    if workload == DIAGRAM_PRODUCTS:
        return _chain_items(rng)
    raise ValueError(f"unknown workload {workload!r}")


def digest(items) -> str:
    """SHA-256 over the inputs the program receives (answers excluded)."""
    blob = json.dumps([item["input"] for item in items], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# words-long


def _random_address(rng, n: int, min_depth: int = 0) -> tuple:
    depth = rng.randint(min_depth, MAX_ADDRESS_DEPTH)
    return tuple(rng.randint(1, n) for _ in range(depth))


def random_letter(rng, n: int, theory: str, min_depth: int = 0) -> tuple:
    """(kind, index, sign, address) with kind "a" or, in theory sc, "s"."""
    kind = "a" if theory == "c" or rng.random() < 0.5 else "s"
    return (kind, rng.randint(1, n - 1), rng.choice((1, -1)),
            _random_address(rng, n, min_depth))


def inverse_letter(letter: tuple) -> tuple:
    kind, index, sign, address = letter
    return (kind, index, -sign, address)


def orthogonal(a: tuple, b: tuple) -> bool:
    """Neither address is a prefix of the other."""
    k = min(len(a), len(b))
    return a[:k] != b[:k]


def format_letter(letter: tuple) -> str:
    kind, index, sign, address = letter
    head = kind if sign > 0 else kind.upper()
    where = ".".join(str(step) for step in address) or "-"
    return f"{head}{index}[{where}]"


def build_pair(rng, n: int, theory: str, length: int, kind: str):
    """Two words and whether they are equal in the group, by construction.

    equal-cancel inserts a letter and its inverse; equal-swap exchanges two
    adjacent letters at orthogonal addresses (they commute); unequal appends
    one letter, and no single letter is the identity.
    """
    w = [random_letter(rng, n, theory) for _ in range(length)]
    if kind == "equal-cancel":
        g = random_letter(rng, n, theory)
        at = rng.randint(0, length)
        return w, w[:at] + [g, inverse_letter(g)] + w[at:], True
    if kind == "equal-swap":
        at = rng.randint(0, length - 2)
        while True:
            first = random_letter(rng, n, theory, min_depth=1)
            second = random_letter(rng, n, theory, min_depth=1)
            if orthogonal(first[3], second[3]):
                break
        w[at], w[at + 1] = first, second
        swapped = list(w)
        swapped[at], swapped[at + 1] = second, first
        return w, swapped, True
    if kind == "unequal":
        return w, w + [random_letter(rng, n, theory)], False
    raise ValueError(f"unknown pair kind {kind!r}")


def word_item(rng, n: int, theory: str, length: int, kind: str) -> dict:
    w1, w2, equal = build_pair(rng, n, theory, length, kind)
    argv = (["word", "eq", "--n", str(n), "--theory", theory]
            + [format_letter(g) for g in w1] + ["--"] + [format_letter(g) for g in w2])
    return {"input": {"argv": argv},
            "expect": {"exit": 0 if equal else 1, "out": "equal" if equal else "unequal"}}


def _word_items(rng) -> list:
    items = [
        word_item(rng, n, theory, length, PAIR_KINDS[k % len(PAIR_KINDS)])
        for (n, theory), lengths in WORD_LENGTHS.items()
        for k, length in enumerate(lengths)
    ]
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# check-suites


def generalized_catalan(n: int, k: int) -> int:
    """n-ary trees with k internal nodes: C(nk, k) / ((n-1)k + 1)."""
    return math.comb(n * k, k) // ((n - 1) * k + 1)


def axioms_report_lines(n: int, theory: str, max_addr: int) -> int:
    sizes = _CATALAN_FAMILY_SIZES if theory == "c" else _SYMMETRIC_FAMILY_SIZES
    bases = sum(n ** k for k in range(max_addr + 1))
    return sum(size(n) for size in sizes) * bases


def coherence_report_lines(n: int, max_nodes: int) -> int:
    return sum(generalized_catalan(n, k) for k in range(max_nodes + 1))


def moore_report_lines(n: int) -> int:
    squares = n - 1
    braids = n - 2
    commuting = (n - 2) * (n - 3) // 2
    closure = 1 if n <= 5 else 0
    return squares + braids + commuting + closure


def _suite_items() -> list:
    """Every suite run of one pass with its expected PASS lines, always in
    this order whatever the seed: a suite's time depends on which suites
    warmed the library's caches before it."""
    runs = []
    for n in (2, 3, 4):
        for theory in THEORIES:
            for max_addr in (0, 1, 2):
                runs.append((["check", "axioms", "--n", str(n), "--theory", theory,
                              "--max-addr", str(max_addr)],
                             axioms_report_lines(n, theory, max_addr)))
    for n, top in ((2, 5), (3, 4)):
        for max_nodes in range(1, top + 1):
            runs.append((["check", "coherence", "--n", str(n), "--max-nodes",
                          str(max_nodes)], coherence_report_lines(n, max_nodes)))
    for n in (3, 4, 5):
        runs.append((["check", "moore", "--n", str(n)], moore_report_lines(n)))
    return [{"input": {"argv": argv}, "expect": {"exit": 0, "pass_lines": lines}}
            for argv, lines in runs]


# ---------------------------------------------------------------------------
# diagram-products


def random_tree(rng, n: int, carets: int):
    """A random n-ary tree in the JSON form (0 is a leaf): carets added one
    at a time at uniformly chosen leaves."""
    tree = 0
    for _ in range(carets):
        paths = []

        def walk(node, path):
            if node == 0:
                paths.append(path)
            else:
                for k, child in enumerate(node):
                    walk(child, path + (k,))

        walk(tree, ())
        tree = _replace(tree, rng.choice(paths), [0] * n)
    return tree


def _replace(tree, path, new):
    if not path:
        return new
    kids = list(tree)
    kids[path[0]] = _replace(kids[path[0]], path[1:], new)
    return kids


def random_diagram(rng, n: int, carets: int) -> dict:
    leaves = carets * (n - 1) + 1
    perm = list(range(1, leaves + 1))
    rng.shuffle(perm)
    return {"n": n, "domain": random_tree(rng, n, carets),
            "range": random_tree(rng, n, carets), "perm": perm}


def identity_json(n: int) -> dict:
    return {"n": n, "domain": 0, "range": 0, "perm": [1]}


def _chain_items(rng) -> list:
    """One item per chain: multiply the diagrams in order, then multiply by
    their inverses in reverse.  Every `every` unwinding steps the running
    product must equal the forward product at that depth; at the end it
    must be the identity.  Depth 1 is no checkpoint: the forward product
    there is the input diagram itself, which need not be reduced."""
    items = []
    for n, length, carets, every in CHAINS:
        diagrams = [random_diagram(rng, n, carets) for _ in range(length)]
        checkpoints = list(range(length - every, 1, -every))
        items.append({"input": {"n": n, "diagrams": diagrams,
                                "checkpoints": checkpoints},
                      "expect": {"final": identity_json(n),
                                 "checkpoints": len(checkpoints)}})
    return items


# ---------------------------------------------------------------------------
# Verdicts


def wrong_verdicts(workload: str, item: dict, observed: dict) -> int:
    """Number of verdicts in one item's observation that differ from the
    known answer.  `observed` is what the worker saw; an item that raised
    has no verdicts and is counted as failed elsewhere."""
    if "error" in observed:
        return 0
    expect = item["expect"]
    if workload == WORDS_LONG:
        return int(observed["exit"] != expect["exit"] or observed["out"] != expect["out"])
    if workload == CHECK_SUITES:
        return int(
            observed["exit"] != expect["exit"]
            or observed["last"] != "all-pass"
            or observed["pass_lines"] != expect["pass_lines"]
            or observed["other_lines"] != 0
        )
    if workload == DIAGRAM_PRODUCTS:
        wrong = sum(1 for same in observed["checkpoints"] if not same)
        wrong += abs(len(observed["checkpoints"]) - expect["checkpoints"])
        return wrong + int(observed["final"] != expect["final"])
    raise ValueError(f"unknown workload {workload!r}")
