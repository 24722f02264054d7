"""Terms over graded signatures, term addresses, substitution, and the
combinatorics of n-ary bracketings.

A term is either a variable leaf or an application of a function symbol to
exactly arity-many subterms.  The default setting throughout the package is
the "tuple" signature: a single n-ary symbol, whose terms are exactly the
leaf-labelled n-ary trees.  This module also provides the normal form and
counting machinery for those trees: the in-order leaf word, the left-comb
normal form, the rank measure that is zero exactly on left combs, and
exhaustive shape enumeration checked against the generalized Catalan numbers.

Two walkers visit a term, each with an explicit stack rather than recursion:
`subterms` yields every (address, subterm) pair in pre-order, and
`underlying_list` builds the leaf word.  The address and variable queries
below are read off one or the other.  Except `normal_form_steps`, one loop
down the spine, the walks that build terms or text recurse, at one Python
frame per level: each is a plain loop in a module function, `apply_subst`,
`format_term` and `_label_shape` handle a leaf child in the parent's loop,
and none is a closure or calls itself through `map` or a generator.
"""

from __future__ import annotations

import itertools
import math
import re
from functools import lru_cache
from operator import attrgetter


class TermError(ValueError):
    pass


class ParseError(TermError):
    pass


class AddressError(TermError):
    pass


#: Sets a field of a `Value` in its `__init__`, past the frozen `__setattr__`.
set_field = object.__setattr__


class Value:
    """An immutable value with the named `_fields`, each set once by the
    subclass's `__init__` through `set_field`.  Assigning or deleting an
    attribute raises AttributeError; `==` holds between instances of one
    class with equal fields, and equal values hash equal; `repr` reads
    `Name(field=value, ...)`."""

    _fields: tuple = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"


class Var(Value):
    """A variable leaf."""

    _fields = ("name",)

    def __init__(self, name: str):
        set_field(self, "name", name)

    def __eq__(self, other):
        if other.__class__ is not Var:
            return NotImplemented
        return self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


class App(Value):
    """An application node: a function symbol over child terms."""

    _fields = ("symbol", "children")

    def __init__(self, symbol: str, children: tuple):
        set_field(self, "symbol", symbol)
        set_field(self, "children", children)

    def __eq__(self, other):
        # an explicit stack, so that terms of any depth compare; comparing
        # the children tuples would recurse at several C frames per level
        if not isinstance(other, App):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a.symbol != b.symbol or len(a.children) != len(b.children):
                return False
            for x, y in zip(a.children, b.children):
                if x is y:
                    continue
                if isinstance(x, App) and isinstance(y, App):
                    stack.append((x, y))
                elif x != y:
                    return False
        return True

    def __hash__(self):
        # an explicit stack, as in `__eq__`: pre-order tokens, a node's symbol and arity
        tokens, stack = [], [self]
        while stack:
            t = stack.pop()
            if isinstance(t, App):
                tokens.append((t.symbol, len(t.children)))
                stack.extend(t.children)
            else:
                tokens.append(t.name)
        return hash(tuple(tokens))

    def __repr__(self) -> str:
        # a loop calling the method directly: one Python frame per level
        kids = []
        for kid in self.children:
            kids.append(kid.__repr__())
        return f"App({self.symbol!r}, ({', '.join(kids)}))"


# A Term is Var | App.  Addresses are tuples whose steps are 1-based child
# indices; a step may also be a (symbol, index) pair, in which case the
# symbol at that node is checked while walking.  The empty tuple is the root.
Term = Var | App
Address = tuple

#: Symbol name used for the single n-ary tuple symbol.
CAT = "*"

#: An identifier: a variable, or a symbol of a multi-symbol signature.
_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
#: One term token, an identifier or `(`, `)`, `,`, in group 1; any other
#: character that is not white space in group 2.
_TOKEN = re.compile(rf"([(),]|{_IDENT.pattern})|(\S)")


class Signature:
    """A graded set of function symbols; every arity is at least 1."""

    def __init__(self, symbols):
        arities: dict[str, int] = {}
        for name, arity in symbols:
            if not _IDENT.fullmatch(name) and name != CAT:
                raise TermError(f"bad symbol name: {name!r}")
            if name in arities:
                raise TermError(f"duplicate symbol: {name!r}")
            if not isinstance(arity, int) or arity < 1:
                raise TermError(f"arity of {name!r} must be a positive integer")
            arities[name] = arity
        if not arities:
            raise TermError("signature needs at least one symbol")
        self.arities = arities

    def arity(self, name: str) -> int:
        if name not in self.arities:
            raise TermError(f"unknown symbol: {name!r}")
        return self.arities[name]

    @property
    def single_symbol(self) -> str | None:
        """The unique symbol name, or None for multi-symbol signatures."""
        if len(self.arities) == 1:
            return next(iter(self.arities))
        return None

    def __eq__(self, other) -> bool:
        return isinstance(other, Signature) and self.arities == other.arities

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.arities.items())))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}/{v}" for k, v in self.arities.items())
        return f"Signature({inner})"


def catalan_signature(n: int) -> Signature:
    if n < 2:
        raise TermError("tuple symbol arity must be at least 2")
    return Signature([(CAT, n)])


def cat(*children: Term) -> App:
    """Build a tuple-symbol application (arity = number of children given)."""
    return App(CAT, tuple(children))


# ---------------------------------------------------------------------------
# Addresses and subterm access


def _step_index(t: Term, step) -> int | None:
    """Child index for one address step at node t, or None if inconsistent."""
    if isinstance(t, Var):
        return None
    if isinstance(step, tuple):
        symbol, index = step
        if symbol != t.symbol:
            return None
    else:
        index = step
    if not 1 <= index <= len(t.children):
        return None
    return index


def address_indices(address: Address) -> tuple:
    """Strip symbol components, leaving the plain 1-based index path."""
    return tuple(step[1] if isinstance(step, tuple) else step for step in address)


def subterm(t: Term, address: Address) -> Term | None:
    """The subterm of t at the given address, or None if the path is absent."""
    for step in address:
        index = _step_index(t, step)
        if index is None:
            return None
        t = t.children[index - 1]
    return t


def replace(t: Term, address: Address, s: Term) -> Term:
    """Replace the subterm at `address` with s; other positions untouched."""
    if not address:
        return s
    index = _step_index(t, address[0])
    if index is None:
        raise AddressError(f"address not present: {address}")
    kids = list(t.children)
    kids[index - 1] = replace(kids[index - 1], address[1:], s)
    return App(t.symbol, tuple(kids))


def orthogonal(a: Address, b: Address) -> bool:
    """True iff neither address is a prefix of the other."""
    return any(x != y for x, y in zip(address_indices(a), address_indices(b)))


def subterms(t: Term):
    """Every (address, subterm) pair of t in pre-order, which is ascending
    address order."""
    stack = [((), t)]
    while stack:
        address, u = stack.pop()
        yield address, u
        if isinstance(u, App):
            for k in range(len(u.children), 0, -1):
                stack.append((address + (k,), u.children[k - 1]))


# ---------------------------------------------------------------------------
# Variables and substitution


def support(t: Term) -> frozenset:
    """The set of variable names occurring in t."""
    return frozenset(underlying_list(t))


def variables_in_order(t: Term) -> list:
    """Variable names of t, each once, in order of first occurrence."""
    return list(dict.fromkeys(underlying_list(t)))


def is_balanced(s: Term, t: Term) -> bool:
    return support(s) == support(t)


def is_linear_pair(s: Term, t: Term) -> bool:
    """Balanced, and each variable occurs exactly once on each side."""
    word_s, word_t = underlying_list(s), underlying_list(t)
    return len(word_s) == len(word_t) == len(set(word_s)) and set(word_s) == set(word_t)


def apply_subst(t: Term, subst: dict) -> Term:
    """Simultaneous substitution, extended homomorphically over App nodes.

    Unbound variables map to themselves.
    """
    if isinstance(t, Var):
        return subst.get(t.name, t)
    kids = []
    for kid in t.children:
        if isinstance(kid, Var):
            kids.append(subst.get(kid.name, kid))
        else:
            kids.append(apply_subst(kid, subst))
    return App(t.symbol, tuple(kids))


# ---------------------------------------------------------------------------
# Leaf words, left combs, rank


def underlying_list(t: Term) -> list:
    """The in-order word of leaf variable names of t."""
    out: list = []
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            out.append(u.name)
        else:
            stack.extend(reversed(u.children))
    return out


def lmb(labels, n: int) -> Term:
    """The left comb over the given leaf word.

    The word length must be 1 or of the form n + k(n-1); a single label
    yields a bare variable.
    """
    labels = list(labels)
    m = len(labels)
    if n < 2:
        raise TermError("tuple symbol arity must be at least 2")
    if m == 0:
        raise TermError("empty leaf word")
    if (m - 1) % (n - 1) != 0:
        raise TermError(f"leaf word of length {m} is not n + k(n-1) for n={n}")
    node: Term = Var(labels[0])
    for start in range(1, m, n - 1):
        node = App(CAT, (node,) + tuple(Var(x) for x in labels[start : start + n - 1]))
    return node


def rank(t: Term) -> int:
    """Termination measure for left-comb normalization.

    rank(t) == 0 exactly when t is the left comb on its leaf word.  At each
    node with children t_1..t_n the contribution is
    sum_{i=2}^{n} (i-1) * length(t_i) - n(n-1)/2
    = sum_{i=2}^{n} (i-1) * (length(t_i) - 1).
    Summed leaf by leaf instead, in one walk: each leaf adds the 0-based
    child positions along its path, and each node with k children
    subtracts k(k-1)/2.
    """
    total = 0
    stack = [(t, 0)]  # a subterm and the positions summed along its path
    while stack:
        u, weight = stack.pop()
        if isinstance(u, Var):
            total += weight
        else:
            k = len(u.children)
            total -= k * (k - 1) // 2
            stack.extend(zip(u.children, range(weight, weight + k)))
    return total


def apply_assoc(t: Term, i: int, address: Address) -> Term:
    """Apply the forward regrouping rule with index i at `address`."""
    node = subterm(t, address)
    if not isinstance(node, App):
        raise AddressError(f"no application node at {address}")
    n = len(node.children)
    if not 1 <= i <= n - 1:
        raise TermError(f"rule index {i} out of range for arity {n}")
    nest = node.children[i]
    if not isinstance(nest, App) or len(nest.children) != n:
        raise TermError(f"rule {i} does not apply at {address}")
    c, d = node.children, nest.children
    grouped = App(node.symbol, (c[i - 1],) + d[:-1])
    new = App(node.symbol, c[: i - 1] + (grouped, d[-1]) + c[i + 1 :])
    return replace(t, address, new)


def normal_form_steps(t: Term, n: int) -> list:
    """The steps that rewrite t, whose nodes all have n children, to the left
    comb on its leaf word, in order: (rule index, address, rank drop) triples.

    Down the first-child spine, each node takes rule i while child i+1 is
    its last application past the first child.  Rule i at (c_1, ..., c_n)
    with c_{i+1} = (d_1, ..., d_n) releases d_n to position i+1: each leaf
    of d_n, and no other, loses n-1 from its position sum (see `rank`), so
    the rank drops by (n-1) * length(d_n).  Lengths come from one walk of t,
    so d_n must be a subterm of t.  Weigh a node by the sum of (position - 1)
    on its path from the spine node.  No step raises a weight: (i, ...)
    becomes (i, 1, ...), (i+1, q, ...) becomes (i, q+1, ...) for q < n,
    (i+1, n, ...) becomes (i+1, ...), and moving down drops a leading 1.  A
    step builds (c_i, d_1, ..., d_{n-1}) at (i), of weight at most n-2, but
    d_n sits at (i+1, n), of weight n or more, so no step built d_n.
    """
    order = [t]
    for u in order:  # read as it grows: every node comes after its parent
        if isinstance(u, App):
            if len(u.children) != n:
                raise TermError(f"node of arity {len(u.children)} in a term of arity {n}")
            order.extend(u.children)
    lengths = {}  # a miss, which the weights above rule out, raises KeyError
    for u in reversed(order):
        lengths[id(u)] = sum([lengths[id(c)] for c in u.children]) if isinstance(u, App) else 1
    steps: list = []
    u, depth = t, 0
    while isinstance(u, App):
        while i := max([k for k in range(1, n) if isinstance(u.children[k], App)], default=0):
            c, d = u.children, u.children[i].children
            steps.append((i, (1,) * depth, (n - 1) * lengths[id(d[-1])]))
            grouped = App(u.symbol, (c[i - 1],) + d[:-1])
            u = App(u.symbol, c[: i - 1] + (grouped, d[-1]) + c[i + 1 :])
        u, depth = u.children[0], depth + 1
    return steps


def normalize_to_lmb(t: Term, n: int):
    """Rewrite t to the left comb on its leaf word: (normal form, steps),
    the (rule index, address) pairs of `normal_form_steps` in order."""
    steps = [(i, address) for i, address, _ in normal_form_steps(t, n)]
    return lmb(underlying_list(t), n), steps


# ---------------------------------------------------------------------------
# Shape enumeration


def generalized_catalan(n: int, k: int) -> int:
    """Number of n-ary trees with k internal nodes: C(nk, k) / ((n-1)k + 1)."""
    return math.comb(n * k, k) // ((n - 1) * k + 1)


def _compositions(total: int, parts: int):
    """Every tuple of `parts` non-negative integers that sum to `total`, in
    lexicographic order, from one loop: each comes from the one before by
    moving a unit from its rightmost nonzero part past the first one place
    left, and the rest of that part to the end."""
    comp = [0] * (parts - 1) + [total]
    while True:
        yield tuple(comp)
        k = parts - 1
        while k and not comp[k]:
            k -= 1
        if not k:
            return
        rest, comp[k] = comp[k] - 1, 0
        comp[k - 1] += 1
        comp[-1] = rest


@lru_cache(maxsize=None)
def _shapes(n: int, k: int) -> tuple:
    """All n-ary tree shapes with k internal nodes; a shape is None for a
    leaf or a tuple of child shapes.  Deterministic order."""
    if k == 0:
        return (None,)
    out = []
    for comp in _compositions(k - 1, n):
        choices = []
        for c in comp:
            choices.append(_shapes(n, c))
        out.extend(itertools.product(*choices))
    return tuple(out)


def _label_shape(shape, labels) -> Term:
    """The internal `shape` as a term, its leaves named from `labels`."""
    kids = []
    for kid in shape:
        kids.append(Var(next(labels)) if kid is None else _label_shape(kid, labels))
    return App(CAT, tuple(kids))


def enumerate_terms(n: int, k: int) -> list:
    """All terms over the n-ary tuple symbol with k internal nodes.

    Leaves are labelled x1, x2, ... left to right.  Shapes come in
    lexicographic order of their child sizes, then of the children's shapes,
    so every forward regrouping leads to a later term of the list: it keeps
    the size of every subtree above its node, and at its node it raises the
    size of the first child it changes.
    """
    if n < 2:
        raise TermError("tuple symbol arity must be at least 2")
    if k < 0:
        raise TermError("k must be nonnegative")
    if k == 0:
        return [Var("x1")]
    labels = [f"x{j}" for j in range(1, k * (n - 1) + 2)]
    return [_label_shape(shape, iter(labels)) for shape in _shapes(n, k)]


# ---------------------------------------------------------------------------
# Text form


def format_term(t: Term, signature: Signature) -> str:
    """The text form of t.  The first-child spine is read in one loop, so a
    left comb of any depth prints; only the other children recurse."""
    spine = []
    while isinstance(t, App):
        spine.append(t)
        t = t.children[0]
    if signature.single_symbol is not None:
        sep, parts = " ", ["(" * len(spine), t.name]
    else:
        sep, parts = ",", [f"{node.symbol}(" for node in spine]
        parts.append(t.name)
    for node in reversed(spine):
        for kid in node.children[1:]:
            parts.append(sep)
            parts.append(kid.name if isinstance(kid, Var) else format_term(kid, signature))
        parts.append(")")
    return "".join(parts)


def _tokenize(text: str) -> list:
    """The tokens of a term text, read in one scan of `_TOKEN`."""
    tokens = []
    for token, bad in _TOKEN.findall(text):
        if bad:
            raise ParseError(f"bad character {bad!r} in term text")
        tokens.append(token)
    return tokens


def parse_term(text: str, signature: Signature) -> Term:
    """Parse the textual term form.

    Single-symbol signatures use parenthesized tuples: `(a (b c))`.  General
    signatures use `name(t1,...,tk)`; bare identifiers are variables.
    """
    tokens = _tokenize(text)
    out, pos = _parse(tokens, 0, signature)
    if pos != len(tokens):
        raise ParseError(f"trailing input after term: {tokens[pos:]}")
    return out


def _peek(tokens: list, pos: int):
    return tokens[pos] if pos < len(tokens) else None


def _parse(tokens: list, pos: int, signature: Signature):
    """The term that starts at tokens[pos], and the position after it."""
    tok = _peek(tokens, pos)
    if tok is None:
        raise ParseError("unexpected end of term text")
    pos += 1
    single = signature.single_symbol
    if single is not None and tok == "(":
        kids = []
        while (nxt := _peek(tokens, pos)) != ")":
            if nxt is None:
                raise ParseError("unbalanced parenthesis")
            if nxt == ",":
                raise ParseError("commas are not used with a tuple signature")
            kid, pos = _parse(tokens, pos, signature)
            kids.append(kid)
        n = signature.arity(single)
        if len(kids) != n:
            raise ParseError(f"tuple of {len(kids)} children, expected {n}")
        return App(single, tuple(kids)), pos + 1
    if not _IDENT.match(tok):
        raise ParseError(f"bad token {tok!r}")
    if single is not None:
        return Var(tok), pos
    if _peek(tokens, pos) == "(":
        if tok not in signature.arities:
            raise ParseError(f"unknown symbol {tok!r}")
        kid, pos = _parse(tokens, pos + 1, signature)
        kids = [kid]
        while _peek(tokens, pos) == ",":
            kid, pos = _parse(tokens, pos + 1, signature)
            kids.append(kid)
        close = _peek(tokens, pos)
        if close is None:
            raise ParseError("unexpected end of term text")
        if close != ")":
            raise ParseError(f"expected ')', found {close!r}")
        if len(kids) != signature.arity(tok):
            raise ParseError(
                f"symbol {tok!r} applied to {len(kids)} arguments, "
                f"expected {signature.arity(tok)}"
            )
        return App(tok, tuple(kids)), pos + 1
    if tok in signature.arities:
        raise ParseError(f"symbol {tok!r} used without arguments")
    return Var(tok), pos


def format_address(address: Address) -> str:
    indices = address_indices(address)
    if not indices:
        return "-"
    return ".".join(str(i) for i in indices)


#: An address other than the root "-": dot-separated ASCII digit steps.
_ADDRESS = re.compile(r"[0-9]+(?:\.[0-9]+)*")


def parse_address(text: str) -> tuple:
    text = text.strip()
    if text == "-":
        return ()
    if _ADDRESS.fullmatch(text) is None:
        raise ParseError(f"bad address text {text!r}")
    indices = tuple([parse_digits(p, "address step") for p in text.split(".")])
    if 0 in indices:
        raise ParseError(f"address indices must be positive: {text!r}")
    return indices


def parse_digits(digits: str, what: str) -> int:
    """A string of ASCII digits as an int.  One too long for the
    interpreter's int-string conversion limit raises ParseError."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"{what} of {len(digits)} digits is too long") from None
