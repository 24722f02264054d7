"""The CLI parser as it was built before the command table, one
`add_argument` call per option of each command, for the tests.

`cli._build_parser` builds its tree from `cli._COMMANDS`; it must give the
same help text at every level and parse every argument list to the same
namespace, or refuse it with the same exit code and messages.
"""

import argparse
import functools
import re


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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="treegroups")
    top = parser.add_subparsers(dest="group", required=True)

    term = top.add_parser("term", help="term normalization and rank")
    term_sub = term.add_subparsers(dest="command", required=True)
    p = term_sub.add_parser("normalize")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("term", nargs="+")
    p = term_sub.add_parser("rank")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("term", nargs="+")

    trees = top.add_parser("trees", help="shape counting")
    trees_sub = trees.add_subparsers(dest="command", required=True)
    p = trees_sub.add_parser("count")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--k", type=_integer, required=True)

    op = top.add_parser("op", help="operator composition")
    op_sub = op.add_subparsers(dest="command", required=True)
    p = op_sub.add_parser("compose")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--theory", choices=("c", "sc"), required=True)
    p.add_argument("word", nargs="+")

    word = top.add_parser("word", help="word evaluation and equality")
    word_sub = word.add_subparsers(dest="command", required=True)
    p = word_sub.add_parser("eval")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--theory", choices=("c", "sc"), required=True)
    p.add_argument("word", nargs="+")
    p = word_sub.add_parser("eq")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--theory", choices=("c", "sc"), required=True)
    p.add_argument("w1", nargs="*", help="the first word; the second follows --")

    check = top.add_parser("check", help="axiom, coherence, and symmetric-group suites")
    check_sub = check.add_subparsers(dest="command", required=True)
    p = check_sub.add_parser("axioms")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--theory", choices=("c", "sc"), required=True)
    p.add_argument("--max-addr", type=_integer, default=2)
    p = check_sub.add_parser("coherence")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--max-nodes", type=_integer, default=4)
    p = check_sub.add_parser("moore")
    p.add_argument("--n", type=_integer, required=True)

    export = top.add_parser("export", help="Graphviz export")
    export_sub = export.add_subparsers(dest="command", required=True)
    p = export_sub.add_parser("dot")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--theory", choices=("c", "sc"), required=True)
    p.add_argument("word", nargs="+")

    return parser
