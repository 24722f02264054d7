"""The term, word and address readers as they were before each syntax
became one compiled pattern, for the tests.

`_tokenize` walks the term text one character at a time and matches an
identifier against the rest of the text, `parse_word` checks a letter's
head, index digits and brackets by hand and reads every token afresh, and
`parse_address` checks each step with `str.isdigit`.  The library's
`terms._tokenize`, `coherence.parse_word` and `terms.parse_address` must
give the same tokens, words and addresses, or raise the same exception
with the same message.
"""

import re

from treegroups.coherence import Generator, GeneratorWord
from treegroups.terms import ParseError, parse_digits


def _tokenize(text: str) -> list:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "(),":
            tokens.append(ch)
            i += 1
            continue
        m = re.match(r"[A-Za-z][A-Za-z0-9_]*", text[i:])
        if not m:
            raise ParseError(f"bad character {ch!r} in term text")
        tokens.append(m.group())
        i += len(m.group())
    return tokens


def parse_word(text: str) -> GeneratorWord:
    out = []
    for token in text.split():
        head = token[0]
        if head not in "aAsS":
            raise ParseError(f"bad generator token {token!r}")
        open_bracket = token.find("[")
        digits = token[1:open_bracket]
        if open_bracket < 0 or not token.endswith("]") or not (
            digits.isascii() and digits.isdigit()
        ):
            raise ParseError(f"bad generator token {token!r}")
        address = parse_address(token[open_bracket + 1 : -1])
        out.append(
            Generator(
                head.lower(),
                parse_digits(digits, "generator index"),
                1 if head.islower() else -1,
                address,
            )
        )
    return tuple(out)


def parse_address(text: str) -> tuple:
    text = text.strip()
    if text == "-":
        return ()
    parts = text.split(".")
    if not all(p.isascii() and p.isdigit() for p in parts):
        raise ParseError(f"bad address text {text!r}")
    indices = tuple([parse_digits(p, "address step") for p in parts])
    if any(i < 1 for i in indices):
        raise ParseError(f"address indices must be positive: {text!r}")
    return indices
