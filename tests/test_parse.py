"""The term and word readers against the character-by-character readers in
`parse_reference`, on seeded random text, and the term reader's speed on a
wide flat term.

Each random string is short and drawn from an alphabet of brackets, dots,
dashes, commas, `_`, ASCII digits and letters, the non-ASCII `é` and `١`,
and white space, ASCII and not.  Both readers must give the same tokens or
words, or raise the same exception type with the same message.
"""

import random
import re
import sys
import time
from collections import Counter

import parse_reference as ref

from treegroups.coherence import parse_word
from treegroups.terms import _tokenize, catalan_signature, parse_term

TERM_CHARS = "(((,)))xyzFab_09[].-é١ \t\n　"
WORD_CHARS = list("aAsSbx0129[].-,_(é١ \t\n　")
# pieces of letters, each four times as likely as one character, so that
# about one string in thirty is a non-empty word
WORD_PIECES = ["a1[", "S2[", "s0[", "A١[", "-]", "1]", "2.1]", "0]", " ", " ", "a1[-]", "S2[1.2]"]
WORD_WEIGHTS = [1] * len(WORD_CHARS) + [4] * len(WORD_PIECES)
ONES = "1" * 5000


def outcome(read, text):
    try:
        return "ok", read(text)
    except Exception as exc:
        return type(exc), str(exc)


def kind(result):
    """A short name for an outcome: "ok", or the message's first words."""
    return "ok" if result[0] == "ok" else " ".join(result[1].split()[:2])


def test_tokenize_matches_the_reference():
    rng = random.Random(1801)
    kinds = Counter()
    for _ in range(100_000):
        text = "".join(rng.choices(TERM_CHARS, k=rng.randint(0, 12)))
        got = outcome(_tokenize, text)
        assert got == outcome(ref._tokenize, text), text
        kinds[kind(got)] += 1
    assert set(kinds) == {"ok", "bad character"}
    assert min(kinds.values()) > 20_000, kinds


def test_parse_word_matches_the_reference():
    rng = random.Random(1802)
    kinds = Counter()
    edge = [f"a{ONES}[-]", f"a1[{ONES}]", f"a{ONES}[x]", f"A{ONES}[1.0]", "a1[-]]", "a1[[-]"]
    texts = edge + [
        "".join(rng.choices(WORD_CHARS + WORD_PIECES, WORD_WEIGHTS, k=rng.randint(0, 6)))
        for _ in range(100_000)
    ]
    for text in texts:
        got = outcome(parse_word, text)
        assert got == outcome(ref.parse_word, text), text
        kinds[kind(got) if got != ("ok", ()) else "empty"] += 1
    assert outcome(parse_word, f"a{ONES}[x]")[1] == "bad address text 'x'"
    assert set(kinds) == {
        "ok", "empty", "bad generator", "bad address", "address indices",
        "address step", "generator index",
    }
    assert kinds["ok"] > 1_000 and kinds["bad address"] > 1_000, kinds


def test_term_white_space_is_what_str_isspace_says():
    # `_tokenize` skips what `\s` matches, the reference what `str.isspace` says
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    spaces = "".join(ch for ch in every if ch.isspace())
    assert "".join(re.findall(r"\s", every)) == spaces
    assert _tokenize(f"x{spaces}(y,z)") == ["x", "(", "y", ",", "z", ")"]


def test_a_flat_term_of_300000_leaves_parses_in_seconds():
    width = 300_000
    text = "(" + " ".join(f"x{i}" for i in range(1, width + 1)) + ")"
    start = time.perf_counter()
    term = parse_term(text, catalan_signature(width))
    assert time.perf_counter() - start < 5
    assert len(term.children) == width and term.children[-1].name == f"x{width}"
