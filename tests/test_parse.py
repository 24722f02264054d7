"""The term, word and address readers against the readers in
`parse_reference`, on seeded random text; how often the word reader reads
a repeated token; and the term reader's speed on a wide flat term.

Each random string is short and drawn from an alphabet of brackets, dots,
dashes, commas, `_`, ASCII digits and letters, the non-ASCII `é` and `١`,
and white space, ASCII and not.  Both readers must give the same tokens,
words or addresses, or raise the same exception type with the same message.
"""

import random
import re
import sys
import time
from collections import Counter

import pytest

import parse_reference as ref

from treegroups import coherence
from treegroups.coherence import A, S, Generator, parse_word
from treegroups.terms import ParseError, _tokenize, catalan_signature, parse_address, parse_term

TERM_CHARS = "(((,)))xyzFab_09[].-é١ \t\n　"
WORD_CHARS = list("aAsSbx0129[].-,_(é١ \t\n　")
# pieces of letters, each four times as likely as one character, so that
# about one string in thirty is a non-empty word
WORD_PIECES = ["a1[", "S2[", "s0[", "A١[", "-]", "1]", "2.1]", "0]", " ", " ", "a1[-]", "S2[1.2]"]
WORD_WEIGHTS = [1] * len(WORD_CHARS) + [4] * len(WORD_PIECES)
ADDRESS_CHARS = "0123456789.-+_x \t\n\u00a0\u3000١²"
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
    # a bad token after letters that repeat: it raises where it first occurs
    edge += [
        "a1[1.2] a1[1.2] a1[0]", "a1[-] A1[-] a1[-] b1[-]", "s1[2] s1[2] s1[x]",
        f"a1[-] a1[-] a{ONES}[-]", "S2[1.2] S2[1.2] S2[1.2]]", "a1[-] a1[-] a1[-.1]",
    ]
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


def test_parse_address_matches_the_reference():
    rng = random.Random(1901)
    kinds = Counter()
    texts = [f"1.{'9' * 4301}", f"0.{'9' * 4301}", f"{'9' * 4301}.x"] + [
        "".join(rng.choices(ADDRESS_CHARS, k=rng.randint(0, 8))) for _ in range(100_000)
    ]
    for text in texts:
        got = outcome(parse_address, text)
        assert got == outcome(ref.parse_address, text), text
        kinds[kind(got)] += 1
    assert outcome(parse_address, f"0.{'9' * 4301}")[1] == "address step of 4301 digits is too long"
    assert set(kinds) == {"ok", "bad address", "address indices", "address step"}
    assert kinds["ok"] > 10_000 and kinds["address indices"] > 500, kinds


def test_parse_word_reads_each_distinct_token_once(monkeypatch):
    calls = []

    def counted(text):
        calls.append(text)
        return parse_address(text)

    monkeypatch.setattr(coherence, "parse_address", counted)
    text = "a1[1.2] A1[1.2] a1[1.2] s1[-] a1[1.2]"
    word = parse_word(text)
    assert calls == ["1.2", "1.2", "-"]
    public = (A(1, (1, 2)), A(1, (1, 2), -1), A(1, (1, 2)), S(1), A(1, (1, 2)))
    assert word == public and list(map(hash, word)) == list(map(hash, public))
    assert all(type(g) is Generator for g in word)
    # nothing outlives the call: the same text is read again
    assert parse_word(text) == word and len(calls) == 6


def test_a_bad_token_after_repeated_letters_raises_where_it_occurs():
    with pytest.raises(ParseError) as info:
        parse_word("a1[-] a1[-] a1[0]")
    assert str(info.value) == "address indices must be positive: '0'"
    with pytest.raises(ParseError) as info:
        parse_word("a1[-] a1[-] b1[-]")
    assert str(info.value) == "bad generator token 'b1[-]'"


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
