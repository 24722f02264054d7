"""Command-line front end.

Exit codes: 0 for success / equal / all checks passed, 1 for unequal or any
failed check, 2 for usage or parse errors, for input nested too deeply to
evaluate or too large for the memory available, and for a check suite that
would check nothing (n < 2 or a negative bound).  Results go to stdout,
diagnostics to stderr.

A well-formed argv (group, command, each option spelled in full once with a
value not starting with `-`, then the words) is read off `_COMMANDS` directly;
argparse reads every other argv, and alone writes usage, help and errors.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import re
import sys

from .terms import (
    TermError,
    catalan_signature,
    format_term,
    generalized_catalan,
    enumerate_terms,
    lmb,
    normal_form_steps,
    parse_term,
    rank,
    underlying_list,
)
from .operators import EMPTY
from .coherence import (
    THEORIES,
    check_axioms,
    check_coherence,
    check_moore,
    eval_diagram,
    parse_word,
    word_operator,
    words_equal,
)
from .diagrams import to_dot, to_json


#: An integer option: ASCII digits with an optional leading `-`, as letter
#: indices and address steps are read, not whatever `int()` takes.
_INTEGER = re.compile(r"-?[0-9]+")


def _integer(text: str) -> int:
    if _INTEGER.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # too many digits for the int-string conversion
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


# Argument specs shared by several commands: a name and its argparse options.
_N = "--n", {"type": _integer, "required": True}
_THEORY = "--theory", {"choices": tuple(THEORIES), "required": True}
_WORD = "word", {"nargs": "+"}
_TERM = "term", {"nargs": "+"}

#: Every command a user can type: per group its help text and its commands,
#: and per command its arguments in usage order.
_COMMANDS = {
    "term": ("term normalization and rank", {"normalize": (_N, _TERM), "rank": (_N, _TERM)}),
    "trees": ("shape counting", {"count": (_N, ("--k", {"type": _integer, "required": True}))}),
    "op": ("operator composition", {"compose": (_N, _THEORY, _WORD)}),
    "word": ("word evaluation and equality", {
        "eval": (_N, _THEORY, _WORD),
        "eq": (_N, _THEORY, (
            "w1", {"nargs": "*", "help": "the first word; the second follows --"}
        )),
    }),
    "check": ("axiom, coherence, and symmetric-group suites", {
        "axioms": (_N, _THEORY, ("--max-addr", {"type": _integer, "default": 2})),
        "coherence": (_N, ("--max-nodes", {"type": _integer, "default": 4})),
        "moore": (_N,),
    }),
    "export": ("Graphviz export", {"dot": (_N, _THEORY, _WORD)}),
}


def _read_argv(argv: list) -> argparse.Namespace | None:
    """The namespace argparse gives for a well-formed `argv`, or `None`."""
    if len(argv) < 2 or argv[1] not in _COMMANDS.get(argv[0], ("", {}))[1]:
        return None
    values = {"group": argv[0], "command": argv[1]}
    options, nargs = {}, None
    for name, spec in _COMMANDS[argv[0]][1][argv[1]]:
        if not spec.keys() <= {"type", "choices", "required", "default", "nargs", "help"}:
            return None
        if name.startswith("-"):
            dest = name[2:].replace("-", "_")
            options[name], values[dest] = (dest, spec), spec.get("default")
        else:
            positional, nargs = name, spec.get("nargs", 1)
    i = 2  # an option read is popped, so a repeat ends the loop and is refused
    while i + 1 < len(argv) and argv[i] in options and not argv[i + 1].startswith("-"):
        dest, spec = options.pop(argv[i])
        try:
            value = spec.get("type", str)(argv[i + 1])
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        values[dest] = value
        i += 2
    words = argv[i:]
    if any(w.startswith("-") for w in words) or any(s.get("required") for _, s in options.values()):
        return None
    if nargs == "*" or nargs == "+" and words:
        values[positional] = words
    elif nargs or words:
        return None
    return argparse.Namespace(**values)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="treegroups")
    top = parser.add_subparsers(dest="group", required=True)
    for group, (help_text, commands) in _COMMANDS.items():
        group_parser = top.add_parser(group, help=help_text)
        sub = group_parser.add_subparsers(dest="command", required=True)
        for command, arguments in commands.items():
            p = sub.add_parser(command)
            for name, options in arguments:
                p.add_argument(name, **options)
    return parser


def run(argv) -> int:
    argv = list(argv)
    second_word = None
    if argv[:2] == ["word", "eq"] and "--" in argv[2:]:
        split = argv.index("--", 2)
        argv, tail = argv[:split], argv[split + 1 :]
        second_word = " ".join(tail)

    args = _read_argv(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2

    try:
        return _dispatch(args, second_word)
    except TermError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def _dispatch(args, second_word) -> int:
    if args.group == "term":
        signature = catalan_signature(args.n)
        term = parse_term(" ".join(args.term), signature)
        if args.command == "rank":
            print(rank(term))
            return 0
        steps = normal_form_steps(term, args.n)
        # the normal form has rank 0, so the ranks are the drops summed from the end
        ranks = itertools.accumulate([drop for *_, drop in reversed(steps)], initial=0)
        print(format_term(lmb(underlying_list(term), args.n), signature))
        print(f"steps {len(steps)}")
        print("ranks " + " ".join(str(r) for r in reversed(list(ranks))))
        return 0

    if args.group == "trees":
        counted = len(enumerate_terms(args.n, args.k))
        formula = generalized_catalan(args.n, args.k)
        status = "OK" if counted == formula else "MISMATCH"
        print(f"{counted} {formula} {status}")
        return 0 if counted == formula else 1

    if args.group == "op":
        signature = catalan_signature(args.n)  # before the word: --n 1 reads first
        op = word_operator(parse_word(" ".join(args.word)), args.n, args.theory)
        if op is EMPTY:
            print("empty")
        else:
            print(
                f"{format_term(op.source, signature)} -> "
                f"{format_term(op.target, signature)}"
            )
        return 0

    if args.group == "check":
        if args.command == "axioms":
            ok, lines = check_axioms(args.n, args.theory, args.max_addr)
        elif args.command == "coherence":
            ok, lines = check_coherence(args.n, args.max_nodes)
        else:
            ok, lines = check_moore(args.n)
        for line in lines:
            print(line)
        print("all-pass" if ok else "some-fail")
        return 0 if ok else 1

    if args.command == "eq":
        if second_word is None:
            print("word eq needs two words separated by --", file=sys.stderr)
            return 2
        w1 = parse_word(" ".join(args.w1), letters := {})  # one token table
        w2 = parse_word(second_word, letters)
        equal = words_equal(w1, w2, args.n, args.theory)
        print("equal" if equal else "unequal")
        return 0 if equal else 1

    # word eval and export dot: one evaluation, printed as JSON or as DOT
    diagram = eval_diagram(parse_word(" ".join(args.word)), args.n, args.theory)
    if args.command == "eval":
        print(to_json(diagram))
    else:
        print(to_dot(diagram), end="")
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
