"""Generator words, relation schemas, the word problem, and square filling.

Words are sequences of signed, addressed generators: `a<i>` regroups a
nested tuple one child position to the left, `s<i>` transposes two adjacent
children.  Every relation family below instantiates to a pair of words with
the same evaluation; `eval_diagram` lets each letter act locally on a tree
pair and reduces the pair once at the end.  `words_equal` reduces nothing:
past the words' common prefix and suffix, w1 and then the inverse of w2 act
on one pair, and the words are equal exactly when that pair is trivial.
`word_operator` gives the same element through seed composition, the
package's semantics, which serves operator composition and the tests as the
reference.  Every layer names a theory by its arity and name: the word and
relation layers build no rule, and the readers of rules build the rule of
each letter they meet, once per arity, in `letter_rule`.

The text format is whitespace-separated tokens `a<i>[addr]` / `s<i>[addr]`,
with capital `A`/`S` for inverses and `addr` a dot-separated child-index
path (`-` for the root), e.g. `a1[-] a1[2] S1[-]`.
"""

from __future__ import annotations

import itertools
import math
import re
from functools import lru_cache

from .terms import (
    App,
    Term,
    TermError,
    ParseError,
    Value,
    Var,
    catalan_signature,
    check_tuple_arity,
    enumerate_terms,
    format_address,
    format_term,
    lmb,
    orthogonal,
    parse_address,
    parse_digits,
    set_field,
    subterm,
    subterms,
    underlying_list,
)
from .unify import match
from .operators import (
    Operator,
    Rule,
    Theory,
    TranslatedRule,
    eval_word,
    regroup_rule,
    rewrite_at,
    swap_rule,
)
from .diagrams import (
    TreeDiagram,
    TreePair,
    identity_diagram,
    multiply,
    to_json,
)


class Generator(Value):
    """One letter: kind "a" (regroup) or "s" (twist), 1-based index, sign
    +1/-1, and the address it acts at."""

    _fields = ("kind", "index", "sign", "address")

    def __init__(self, kind: str, index: int, sign: int = 1, address: tuple = ()):
        if kind not in ("a", "s"):
            raise TermError(f"unknown generator kind {kind!r}")
        if sign not in (1, -1):
            raise TermError("generator sign must be +1 or -1")
        set_field(self, "kind", kind)
        set_field(self, "index", index)
        set_field(self, "sign", sign)
        set_field(self, "address", address)

    def __eq__(self, other):
        if other.__class__ is not Generator:
            return NotImplemented
        return (
            self.kind == other.kind
            and self.index == other.index
            and self.sign == other.sign
            and self.address == other.address
        )

    def __hash__(self):
        return hash((self.kind, self.index, self.sign, self.address))

    def inverse(self) -> "Generator":
        return Generator(self.kind, self.index, -self.sign, self.address)

    def __repr__(self) -> str:
        return f"Generator({format_generator(self)!r})"


GeneratorWord = tuple


def A(i: int, address: tuple = (), sign: int = 1) -> Generator:
    return Generator("a", i, sign, address)


def S(i: int, address: tuple = (), sign: int = 1) -> Generator:
    return Generator("s", i, sign, address)


def format_generator(g: Generator) -> str:
    letter = g.kind if g.sign > 0 else g.kind.upper()
    return f"{letter}{g.index}[{format_address(g.address)}]"


def format_word(word) -> str:
    return " ".join(format_generator(g) for g in word)


#: A word's letter: its head, upper-case for the inverse, its ASCII index
#: digits, then the address.
_LETTER = re.compile(r"([aAsS])([0-9]+)\[(.*)\]")


def _letter(kind: str, index: int, sign: int, address: tuple) -> Generator:
    """A letter from parts `parse_word` read itself, without the checks of
    `__init__`: `_LETTER` admits only the kinds a/s and signs ±1.  The
    public constructor keeps them for every other caller."""
    g = object.__new__(Generator)
    vars(g).update(kind=kind, index=index, sign=sign, address=address)
    return g


def parse_word(text: str, letters: dict | None = None) -> GeneratorWord:
    """The letters of a word.  Each distinct token is read once through the
    table `letters`, which words may share; only tokens that parsed enter
    it, so a bad token raises where it first occurs."""
    out, letters = [], {} if letters is None else letters
    for token in text.split():
        g = letters.get(token)
        if g is None:
            m = _LETTER.fullmatch(token)
            if m is None:
                raise ParseError(f"bad generator token {token!r}")
            head, digits, address = m.groups()
            address = parse_address(address)  # before the index: its error comes first
            g = letters[token] = _letter(
                head.lower(),
                parse_digits(digits, "generator index"),
                1 if head.islower() else -1,
                address,
            )
        out.append(g)
    return tuple(out)


@lru_cache(maxsize=None)
def letter_rule(kind: str, index: int, n: int) -> Rule:
    """The rule of the letters `<kind><index>` at arity n, built once and kept."""
    return (regroup_rule if kind == "a" else swap_rule)(n, index)


def check_letter(g: Generator, n: int, theory_name: str) -> None:
    """Raise TermError unless the letter acts at arity n in the theory named
    `theory_name`: index in 1..n-1, every address step in 1..n, and a kind
    the theory has.  Every theory regroups, so only a twist reads `THEORIES`."""
    if not 1 <= g.index <= n - 1:
        raise TermError(f"generator index {g.index} out of range for n={n}")
    for step in g.address:
        if not 1 <= step <= n:
            raise TermError(f"generator address {g.address} out of range for n={n}")
    if g.kind != "a" and g.kind not in _theory_entry(theory_name, n)[0]:
        raise TermError("twist generators need the symmetric theory")


def generator_rule(g: Generator, n: int, theory_name: str) -> TranslatedRule:
    """The letter's rule at the letter's address, reversed for an inverse."""
    check_letter(g, n, theory_name)
    return TranslatedRule(letter_rule(g.kind, g.index, n), g.address, g.sign > 0)


def word_operator(word, n: int, theory_name: str) -> Operator:
    _theory_entry(theory_name, n)  # first, so an empty word is checked too
    return eval_word([generator_rule(g, n, theory_name) for g in word], catalan_signature(n))


def _act_word(pair: TreePair, word, sign: int = 1) -> None:
    """Let the checked `word`, or with sign -1 its inverse, act on `pair`."""
    for g in word if sign > 0 else reversed(word):
        if g.kind == "s":
            pair.swap(g.address, g.index)
        else:
            pair.regroup(g.address, g.index, sign * g.sign)


def eval_diagram(word, n: int, theory_name: str) -> TreeDiagram:
    """Evaluate a word to its reduced tree diagram by local action.

    Each letter acts on a `TreePair` that starts as the identity, rewriting
    one node of its range in place and careting leaves where the letter
    needs nodes.  Freezing the pair at the end reduces it; the result equals
    `to_diagram(word_operator(word, n, theory_name), n)`.
    """
    _theory_entry(theory_name, n)  # first, so a bad arity reads as in `words_equal`
    for g in word:
        check_letter(g, n, theory_name)
    pair = TreePair(identity_diagram(n))
    _act_word(pair, word)
    return pair.freeze()


def words_equal(w1, w2, n: int, theory_name: str) -> bool:
    """Whether w1 = w2 in the group.  Every letter of w1, then of w2, is
    checked; the words then lose their longest common prefix and then suffix
    (u·x·v = u·y·v exactly when x = y), and w1's middle and the inverse of
    w2's act on one identity pair, which `TreePair.is_trivial` walks once."""
    _theory_entry(theory_name, n)
    for g in itertools.chain(w1, w2):
        check_letter(g, n, theory_name)
    start, end1, end2 = 0, len(w1), len(w2)
    # `is` first: letters read through one token table are mostly one object
    while start < end1 and start < end2 and (
        w1[start] is w2[start] or w1[start] == w2[start]
    ):
        start += 1
    while end1 > start < end2 and (
        w1[end1 - 1] is w2[end2 - 1] or w1[end1 - 1] == w2[end2 - 1]
    ):
        end1, end2 = end1 - 1, end2 - 1
    if start == end1 == end2:
        return True
    pair = TreePair(identity_diagram(n))
    _act_word(pair, w1[start:end1])
    _act_word(pair, w2[start:end2], -1)
    return pair.is_trivial()


# ---------------------------------------------------------------------------
# Relation families


class RelationInstance(Value):
    _fields = ("family", "indices", "base", "lhs", "rhs")

    def __init__(self, family: str, indices: tuple, base: tuple, lhs, rhs):
        set_field(self, "family", family)
        set_field(self, "indices", indices)
        set_field(self, "base", base)
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)


def _range_check(value: int, low: int, high: int, what: str) -> None:
    if not low <= value <= high:
        raise TermError(f"{what} must lie in [{low}, {high}], got {value}")


def _check_size(n: int, bound: int = 0, what: str = "bound") -> None:
    """Refuse a suite that would check nothing: n < 2 or a negative bound."""
    if n < 2:
        raise TermError(f"n must be at least 2, got {n}")
    if bound < 0:
        raise TermError(f"{what} must be non-negative, got {bound}")


def pentagon(n: int, i: int, base: tuple = ()) -> RelationInstance:
    """Two regroupings at the base equal the roundabout through the nest."""
    _range_check(i, 1, n - 1, "pentagon index")
    lhs = (A(n - 1, base + (i + 1,)), A(i, base)) + tuple(
        A(k, base + (i,)) for k in range(n - 1, 0, -1)
    )
    rhs = (A(i, base), A(i, base))
    return RelationInstance("pentagon", (i,), base, lhs, rhs)


def adjacent_assoc(n: int, i: int, base: tuple = ()) -> RelationInstance:
    """Interaction of regroupings with adjacent indices; empty when n = 2."""
    _range_check(i, 1, n - 2, "adjacent associativity index")
    lhs = (A(i, base), A(i + 1, base), A(i, base))
    rhs = (A(i + 1, base), A(i, base), A(1, base + (i,)))
    return RelationInstance("adjacent-assoc", (i,), base, lhs, rhs)


def involution(n: int, i: int, base: tuple = ()) -> RelationInstance:
    _range_check(i, 1, n - 1, "involution index")
    lhs = (S(i, base), S(i, base))
    return RelationInstance("involution", (i,), base, lhs, ())


def compatibility(n: int, i: int, j: int, base: tuple = ()) -> RelationInstance:
    """A twist inside a nested tuple slides through a regrouping."""
    _range_check(i, 2, n, "compatibility index i")
    _range_check(j, 1, n - 2, "compatibility index j")
    lhs = (A(i - 1, base), S(j + 1, base + (i - 1,)))
    rhs = (S(j, base + (i,)), A(i - 1, base))
    return RelationInstance("compatibility", (i, j), base, lhs, rhs)


def three_cycle(n: int, i: int, base: tuple = ()) -> RelationInstance:
    """Braid-style relation for adjacent twists; empty when n = 2."""
    _range_check(i, 1, n - 2, "three-cycle index")
    lhs = (S(i, base), S(i + 1, base), S(i, base))
    rhs = (S(i + 1, base), S(i, base), S(i + 1, base))
    return RelationInstance("three-cycle", (i,), base, lhs, rhs)


def hexagon(n: int, i: int, base: tuple = ()) -> RelationInstance:
    """Twisting a nested tuple past its right neighbour, two ways."""
    _range_check(i, 1, n - 1, "hexagon index")
    lhs = (S(i, base), A(i, base), S(1, base + (i,)))
    rhs = (
        (A(i, base, -1),)
        + tuple(S(k, base + (i + 1,)) for k in range(n - 1, 0, -1))
        + (A(i, base),)
    )
    return RelationInstance("hexagon", (i,), base, lhs, rhs)


def dual_hexagon(n: int, i: int, base: tuple = ()) -> RelationInstance:
    """The mirror of the hexagon: the nested tuple sits on the right."""
    _range_check(i, 1, n - 1, "dual hexagon index")
    lhs = (S(i, base), A(i, base, -1), S(n - 1, base + (i + 1,)))
    rhs = (
        (A(i, base),)
        + tuple(S(k, base + (i,)) for k in range(1, n))
        + (A(i, base, -1),)
    )
    return RelationInstance("dual-hexagon", (i,), base, lhs, rhs)


def functoriality_instance(g: Generator, h: Generator) -> RelationInstance:
    """Letters at orthogonal addresses commute."""
    if not orthogonal(g.address, h.address):
        raise TermError("functoriality needs orthogonal addresses")
    return RelationInstance("functoriality", (g.index, h.index), (), (g, h), (h, g))


_FAMILY_BUILDERS = {
    "pentagon": lambda n, base: [pentagon(n, i, base) for i in range(1, n)],
    "adjacent-assoc": lambda n, base: [adjacent_assoc(n, i, base) for i in range(1, n - 1)],
    "involution": lambda n, base: [involution(n, i, base) for i in range(1, n)],
    "compatibility": lambda n, base: [
        compatibility(n, i, j, base)
        for i in range(2, n + 1)
        for j in range(1, n - 1)
    ],
    "three-cycle": lambda n, base: [three_cycle(n, i, base) for i in range(1, n - 1)],
    "hexagon": lambda n, base: [hexagon(n, i, base) for i in range(1, n)],
    "dual-hexagon": lambda n, base: [dual_hexagon(n, i, base) for i in range(1, n)],
}

#: Each theory a user can name: its letter kinds, in the order their rules
#: are tried, and the relation families it declares, in sweep order.
THEORIES = {
    "c": (("a",), ("pentagon", "adjacent-assoc")),
    "sc": (("a", "s"), tuple(_FAMILY_BUILDERS)),
}


def _theory_entry(name: str, n: int) -> tuple:
    """`THEORIES[name]`, or TermError for an unknown name or an arity n < 2."""
    if name not in THEORIES:
        expected = " or ".join(map(repr, THEORIES))
        raise TermError(f"unknown theory {name!r} (expected {expected})")
    check_tuple_arity(n)
    return THEORIES[name]


@lru_cache(maxsize=32, typed=True)
def theory_for(name: str, n: int) -> Theory:
    """The theory named `name` at arity n, assembled here only, from each letter's
    `letter_rule`; kept per (name, n) and the type of n, so n = 2.0 is refused."""
    kinds, signature = _theory_entry(name, n)[0], catalan_signature(n)
    rules = tuple(letter_rule(kind, i, n) for kind in kinds for i in range(1, n))
    return Theory(name, signature, rules, n)


def catalan_theory(n: int) -> Theory:
    """The regrouping theory of the n-ary tuple symbol, `theory_for("c", n)`."""
    return theory_for("c", n)


def symmetric_catalan_theory(n: int) -> Theory:
    """Its symmetric extension by adjacent transpositions, `theory_for("sc", n)`."""
    return theory_for("sc", n)


def relation_instances(n: int, theory_name: str, max_addr: int):
    """All instances of the theory's families at base addresses up to max_addr."""
    for family in _theory_entry(theory_name, n)[1]:
        build = _FAMILY_BUILDERS[family]
        for length in range(max_addr + 1):
            for base in itertools.product(range(1, n + 1), repeat=length):
                yield from build(n, base)


def check_axioms(n: int, theory_name: str, max_addr: int):
    """Decide every relation instance; returns (all passed, report lines).

    Each line carries family, n, indices, base address, and PASS/FAIL; a
    failing instance also reports both reduced diagrams as JSON.
    """
    _check_size(n, max_addr, "max_addr")
    lines = []
    all_ok = True
    for inst in relation_instances(n, theory_name, max_addr):
        ok = words_equal(inst.lhs, inst.rhs, n, theory_name)
        all_ok = all_ok and ok
        idx = " ".join(
            f"{name}={value}"
            for name, value in zip(("i", "j"), inst.indices)
        )
        status = "PASS" if ok else "FAIL"
        line = f"{inst.family} n={n} {idx} base={format_address(inst.base)} {status}"
        lines.append(line)
        if not ok:
            for side, word in (("lhs", inst.lhs), ("rhs", inst.rhs)):
                lines.append(f"  {side}={to_json(eval_diagram(word, n, theory_name))}")
    return all_ok, lines


# ---------------------------------------------------------------------------
# Positive paths and square filling


def positive_steps(t: Term, n: int, theory_name: str) -> dict:
    """Each forward letter whose rule source matches at a node of t, mapped
    to the term that letter rewrites t to; in (address, letter) order, with
    addresses in pre-order and at each address the theory's letter kinds in
    turn, each with indices 1..n-1.  A rule is built only at a node, and
    `a<i>` only where child i+1 is a node, the one place its source matches."""
    kinds = _theory_entry(theory_name, n)[0]
    steps = {}
    for address, node in subterms(t):
        if isinstance(node, App):
            kids = node.children
            for kind, index in itertools.product(kinds, range(1, n)):
                if kind == "a" and (index >= len(kids) or not isinstance(kids[index], App)):
                    continue
                if (u := rewrite_at(t, letter_rule(kind, index, n), address)) is not None:
                    steps[Generator(kind, index, 1, address)] = u
    return steps


def apply_word_to_term(t: Term, word, n: int, theory_name: str) -> Term | None:
    for g in word:
        tr = generator_rule(g, n, theory_name)
        t = rewrite_at(t, tr.rule, tr.address, tr.forward)
        if t is None:
            return None
    return t


def positive_paths(t: Term, n: int) -> list:
    """All maximal sequences of forward regroup letters starting at t.

    Every such sequence strictly decreases rank at each step and ends at the
    left comb on t's leaf word, so this enumerates all positive paths from t
    to its normal form.
    """
    steps = positive_steps(t, n, "c")
    if not steps:
        return [()]
    out = []
    for g, u in steps.items():
        rest = positive_paths(u, n)
        out.extend((g,) + path for path in rest)
    return out


def _follow(source: Term, where: dict, path: tuple) -> tuple | None:
    """Where the node at `path` below a match of a rule's `source` sits
    after the rewrite: its variable's target address in `where` plus the
    rest of the path, or None when the path ends inside the source pattern."""
    node = source
    for depth, step in enumerate(path, start=1):
        node = node.children[step - 1]
        if isinstance(node, Var):
            return where[node.name] + path[depth:]
    return None


def fill_square(t: Term, m1: Generator, m2: Generator, n: int, theory_name: str):
    """Close the fork of two distinct positive letters applicable at t.

    Returns (w1, w2, family) with m1+w1 and m2+w2 equal positive words: the
    two sides of one relation instance, each without its first letter.  Of
    the two letters, `outer` acts at the shorter address and `deep` at the
    longer.  Orthogonal addresses give functoriality.  Naturality is read
    off `outer`'s rule: when the children `deep.index` and `deep.index + 1`
    lie in variables of its source and land as adjacent children of one node
    of its target, `deep` moves there.  Otherwise the closing instance is the
    one among the theory's declared families at `outer`'s address whose two
    sides are non-empty and start with m1 and m2; with none, TermError."""
    if m1 == m2:
        raise TermError("fill_square needs two distinct letters")
    families = _theory_entry(theory_name, n)[1]
    rules = {}  # each letter's rule, looked up once
    for m in (m1, m2):
        node, rules[m] = subterm(t, m.address), generator_rule(m, n, theory_name).rule
        if m.sign != 1 or node is None or match(rules[m].source, node) is None:
            raise TermError(f"{format_generator(m)} is not a forward step at this term")

    if orthogonal(m1.address, m2.address):
        inst = functoriality_instance(m1, m2)
    else:
        outer, deep = (m1, m2) if len(m1.address) <= len(m2.address) else (m2, m1)
        rule, base = rules[outer], outer.address
        where = {}  # each variable of the target to its address
        for address, node in subterms(rule.target):
            if isinstance(node, Var):
                where[node.name] = address
        rest, i = deep.address[len(base) :], deep.index
        left, right = [_follow(rule.source, where, rest + (j,)) for j in (i, i + 1)]
        if left and right and left[:-1] == right[:-1] and left[-1] + 1 == right[-1]:
            moved = Generator(deep.kind, left[-1], deep.sign, base + left[:-1])
            lhs, rhs = (outer, moved), (deep, outer)
            inst = RelationInstance("naturality", (outer.index, i), base, lhs, rhs)
        else:
            for inst in itertools.chain.from_iterable(
                _FAMILY_BUILDERS[family](n, base) for family in families
            ):
                if inst.lhs and inst.rhs and {inst.lhs[0], inst.rhs[0]} == {m1, m2}:
                    break
            else:
                raise TermError(f"no declared relation closes {format_word((m1, m2))}")
    sides = {inst.lhs[0]: inst.lhs[1:], inst.rhs[0]: inst.rhs[1:]}
    return sides[m1], sides[m2], inst.family


def check_coherence(n: int, max_nodes: int):
    """Fork closure over all terms with up to max_nodes internal nodes;
    returns (all passed, report lines).  A line reads PASS when every fork
    reachable from the term closes and the term's positive paths end at its
    left comb with one diagram.  By induction on rank that holds when the
    term's forks close and its successors pass.  A regroup step keeps the
    leaf word and the node count and leads to a later term of
    `enumerate_terms`, so the terms with k nodes are decided once each in
    reverse enumeration order, after their successors, and `paths=` sums
    the successors' counts.  A successor that is not decided yet fails the
    term, and so does one outside the enumeration (a step that changes the
    leaf word).  The lines come in enumeration order.
    """
    _check_size(n, max_nodes, "max_nodes")
    lines = []
    all_ok = True
    name, signature = "c", catalan_signature(n)
    for k in range(max_nodes + 1):
        decided = {}  # term -> (ok, paths); every key has the same leaf word
        report = []
        for t in reversed(enumerate_terms(n, k)):
            steps = positive_steps(t, n, name)
            ok, paths = (True, 0) if steps else (t == lmb(underlying_list(t), n), 1)
            for m1, m2 in itertools.combinations(steps, 2):
                w1, w2, family = fill_square(t, m1, m2, n, name)
                end = apply_word_to_term(steps[m1], w1, n, name)
                ok = (
                    ok
                    and family in ("functoriality", "naturality") + THEORIES[name][1]
                    and all(g.kind == "a" and g.sign == 1 for g in w1 + w2)
                    and end is not None
                    and end == apply_word_to_term(steps[m2], w2, n, name)
                    and words_equal((m1,) + w1, (m2,) + w2, n, name)
                )
            for u in steps.values():  # an undecided successor fails t
                passed, count = decided.get(u, (False, 0))
                ok = ok and passed
                paths += count
            decided[t] = ok, paths
            all_ok = all_ok and ok
            report.append(
                f"coherence n={n} term={format_term(t, signature)} "
                f"pairs={math.comb(len(steps), 2)} "
                f"paths={paths} {'PASS' if ok else 'FAIL'}"
            )
        lines.extend(reversed(report))
    return all_ok, lines


# ---------------------------------------------------------------------------
# Induced transpositions


def check_moore(n: int):
    """Verify the symmetric-group presentation on induced transpositions.

    Decides T_i^2 = 1, (T_i T_{i+1})^3 = 1, and (T_i T_k)^2 = 1 for k >= i+2
    as words in the twists s<i>, like every other relation, plus (n <= 5) that
    the twist diagrams generate exactly n! elements.  Returns (all passed,
    report lines).
    """
    _check_size(n)
    relations = [(f"T{i}^2", (S(i),) * 2) for i in range(1, n)]
    relations += [(f"(T{i}T{i + 1})^3", (S(i), S(i + 1)) * 3) for i in range(1, n - 1)]
    relations += [
        (f"(T{i}T{k})^2", (S(i), S(k)) * 2) for i in range(1, n) for k in range(i + 2, n)
    ]
    checks = [(label, words_equal(word, (), n, "sc")) for label, word in relations]
    if n <= 5:
        one = identity_diagram(n)
        gens = [eval_diagram((S(i),), n, "sc") for i in range(1, n)]
        closure = {one}
        frontier = [one]
        while frontier:
            new = []
            for d in frontier:
                for g in gens:
                    prod = multiply(d, g)
                    if prod not in closure:
                        closure.add(prod)
                        new.append(prod)
            frontier = new
        checks.append((f"closure={len(closure)} expected={math.factorial(n)}",
                       len(closure) == math.factorial(n)))
    lines = [f"moore n={n} {label} {'PASS' if ok else 'FAIL'}" for label, ok in checks]
    return all(ok for _, ok in checks), lines


# ---------------------------------------------------------------------------
# Word rewriting over the relations (used to replay derivations)


def invert_word(word) -> GeneratorWord:
    return tuple(g.inverse() for g in reversed(word))


def free_reduce(word) -> GeneratorWord:
    out: list = []
    for g in word:
        if out and out[-1] == g.inverse():
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def substitute_once(word, old, new) -> GeneratorWord:
    """Replace the first occurrence of the subword `old` by `new`, freely
    reducing the result; raises if `old` does not occur."""
    word = tuple(word)
    old = tuple(old)
    for start in range(len(word) - len(old) + 1):
        if word[start : start + len(old)] == old:
            return free_reduce(word[:start] + tuple(new) + word[start + len(old) :])
    raise TermError("subword not found")


def dual_hexagon_derivation(n: int, i: int):
    """Derive the dual hexagon from involution, hexagon, and compatibility.

    Returns a list of (justification, word) steps: each word arises from its
    predecessor by one relation substitution plus free reduction, starting at
    the dual hexagon's left side and ending exactly at its right side.  Each
    substitution is an instance solved for one letter: `hexagon(n, i)` for
    the inverse twist, `compatibility(n, i + 1, k)` for each slide.
    """
    target = dual_hexagon(n, i)
    steps = [("start: dual hexagon lhs", free_reduce(target.lhs))]

    # s_i = S_i by the involution
    word = substitute_once(steps[-1][1], (S(i),), (S(i, (), -1),))
    steps.append(("involution: s%d = s%d^-1" % (i, i), word))

    # expand S_i via the hexagon, solved for the inverse twist
    h = hexagon(n, i)
    word = substitute_once(
        word, (S(i, (), -1),), free_reduce(h.lhs[1:] + invert_word(h.rhs))
    )
    steps.append(("hexagon: expand the inverse twist", word))

    # flip the remaining inverse twists with the involution
    for k in range(1, n - 1):
        word = substitute_once(word, (S(k, (i + 1,), -1),), (S(k, (i + 1,)),))
        steps.append((f"involution: flip twist {k} at child {i + 1}", word))

    # slide each twist at child i+1 through the regrouping (compatibility)
    for k in range(1, n - 1):
        c = compatibility(n, i + 1, k)
        word = substitute_once(word, c.rhs[:1], c.lhs + invert_word(c.rhs[1:]))
        steps.append((f"compatibility: slide twist {k} through the regrouping", word))

    final = free_reduce(target.rhs)
    if word != final:
        raise TermError("derivation did not reach the dual hexagon rhs")
    steps.append(("equals the dual hexagon rhs", final))
    return steps
