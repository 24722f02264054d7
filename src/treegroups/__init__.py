"""treegroups: rewriting-operator monoids, tree-pair diagram groups, and
coherence axiom verification for n-ary tuple theories."""

from . import coherence, diagrams, operators, terms, unify
from .terms import (
    App,
    Signature,
    Var,
    cat,
    catalan_signature,
    enumerate_terms,
    generalized_catalan,
    lmb,
    normalize_to_lmb,
    parse_term,
    format_term,
    rank,
    underlying_list,
)
from .unify import match, mgu
from .operators import (
    EMPTY,
    Rule,
    Seed,
    Theory,
    TranslatedRule,
    compose,
    eval_word,
    translated_seed,
)
from .diagrams import TreeDiagram, identity_diagram, multiply, to_diagram
from .coherence import (
    Generator,
    catalan_theory,
    check_axioms,
    check_coherence,
    check_moore,
    eval_diagram,
    fill_square,
    parse_word,
    format_word,
    positive_paths,
    symmetric_catalan_theory,
    words_equal,
)

__version__ = "0.1.0"

__all__ = sorted(name for name in globals() if not name.startswith("_"))
