"""The word problem as it was decided before common prefixes and suffixes
cancelled, for the tests.

`words_equal` checks every letter of w1 and lets all of w1 act on one
identity pair, then checks every letter of w2 and lets all of w2's inverse
act on the same pair, and asks `TreePair.is_trivial`.  The library's
`coherence.words_equal` must give the same answer, and raise the same
error for a bad letter, on every pair of words.
"""

from treegroups.coherence import _theory_entry, check_letter
from treegroups.diagrams import TreePair, identity_diagram


def _act_word(pair: TreePair, word, theory_name: str, sign: int = 1) -> None:
    """Check every letter of `word` at the pair's arity, then let the word
    act on `pair`; with sign -1 its inverse acts instead: the letters in
    reverse, each with its sign flipped (a twist is its own inverse)."""
    for g in word:
        check_letter(g, pair.n, theory_name)
    for g in word if sign > 0 else reversed(word):
        if g.kind == "s":
            pair.swap(g.address, g.index)
        else:
            pair.regroup(g.address, g.index, sign * g.sign)


def words_equal(w1, w2, n: int, theory_name: str) -> bool:
    """Whether w1 = w2 in the group: w1 and then w2's inverse act on one
    identity pair.  A pair is the identity exactly when it expands (leaf,
    leaf, id), and every such expansion is (T, T, id), so no reduction is
    needed: `TreePair.is_trivial` walks the pair once."""
    _theory_entry(theory_name, n)
    pair = TreePair(identity_diagram(n))
    _act_word(pair, w1, theory_name)
    _act_word(pair, w2, theory_name, -1)
    return pair.is_trivial()
