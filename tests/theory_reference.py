"""Reference theories and rule readers for the tests.

`catalan_theory(n)` and `symmetric_catalan_theory(n)` build the two tuple
theories straight from `regroup_rule` and `swap_rule`; the library
assembles them in one place, `coherence.theory_for`, from each theory's
letter kinds, and the tests require equal values, rules in the same order.

Each reader here takes the whole theory, looks a letter's rule up by its
name, and `positive_steps` parses each rule's name back into a letter's
kind and index.  The library names a theory by its arity and name instead
and builds only the rules of the letters it meets (`coherence.letter_rule`);
the tests require the two to agree, positive steps in the same key order.
"""

import re

from treegroups.coherence import Generator, check_letter
from treegroups.operators import (
    Theory,
    TranslatedRule,
    eval_word,
    regroup_rule,
    rewrite_at,
    swap_rule,
)
from treegroups.terms import App, Term, TermError, catalan_signature, parse_digits, subterms


def catalan_theory(n: int) -> Theory:
    sig = catalan_signature(n)
    rules = tuple(regroup_rule(n, i) for i in range(1, n))
    return Theory("c", sig, rules, n)


def symmetric_catalan_theory(n: int) -> Theory:
    base = catalan_theory(n)
    swaps = tuple(swap_rule(n, i) for i in range(1, n))
    return Theory("sc", base.signature, base.rules + swaps, n)


#: Each theory name's builder.
THEORIES = {"c": catalan_theory, "sc": symmetric_catalan_theory}

#: A letter's head and ASCII index digits, as in the rule names `a1`, `s2`.
_RULE_LETTER = re.compile(r"([as])([0-9]+)")


def generator_rule(g: Generator, theory: Theory) -> TranslatedRule:
    check_letter(g, theory.n, theory.name)
    return TranslatedRule(theory.rule(f"{g.kind}{g.index}"), g.address, g.sign > 0)


def word_operator(word, theory: Theory):
    return eval_word([generator_rule(g, theory) for g in word], theory.signature)


def positive_steps(t: Term, theory: Theory) -> dict:
    """Each forward letter whose rule source matches at a node of t, mapped
    to the term it rewrites t to; addresses in pre-order and, at each, the
    theory's rules in their declared order."""
    letters = []
    for rule in theory.rules:
        if (m := _RULE_LETTER.fullmatch(rule.name)) is None:
            raise TermError(f"rule {rule.name!r} is not named as a letter")
        letters.append((rule, m[1], parse_digits(m[2], "rule index")))
    steps = {}
    for address, node in subterms(t):
        if isinstance(node, App):
            for rule, kind, index in letters:
                if (u := rewrite_at(t, rule, address)) is not None:
                    steps[Generator(kind, index, 1, address)] = u
    return steps


def apply_word_to_term(t: Term, word, theory: Theory) -> Term | None:
    for g in word:
        tr = generator_rule(g, theory)
        t = rewrite_at(t, tr.rule, tr.address, tr.forward)
        if t is None:
            return None
    return t
