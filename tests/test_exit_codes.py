"""The CLI's exit-code contract on seeded random argument lists.

`cli.run` must return 0, 1 or 2 for any argv, write no traceback, and on
exit 2 write at most one line that starts with `error:`.  The argument
lists are short and drawn from the CLI's own vocabulary: its commands and
flags, small and malformed numbers, both theories, generator letters, term
text, the readers' edge tokens, empty words and `--`, mostly well formed
so that every exit code occurs.  Sizes stay small:
`--n` from -1 to 4 (6 for `check moore`), `--max-addr` and `--max-nodes`
at most 2, always given, and `trees count --k` at most 3.  The examples are
derandomized, so every run checks the same lists.  On lists drawn the same
way, the CLI's parser must parse as `cli_reference`'s does, and the reader
that `cli.run` tries before it must give argparse's namespace or decline.
The module skips when `hypothesis` is not installed.
"""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from treegroups.cli import _build_parser, _read_argv, run

import cli_reference

# Each value comes mostly from its good list, and in about one draw of four
# from its edge list.  The CLI reads each edge number as one from -1 to 4, or
# refuses it.
N = (["2", "3", "4"], ["-1", "0", "1", "", "x", "2.0", "-0", "+2", "٣", "1e1", "1_0", "+3"])
SMALL = (["0", "1", "2"], ["-1", "", "x", "+2", "١", "٣", "1_0", "+3"])
THEORIES = (["c", "sc"], ["C", "", "s", "c sc"])
TERMS = (
    ["x", "(x y)", "(x (y z))", "(x y z)", "(x1 x2 (x3 x4 x5))"],
    ["(a b) c", "(x é)", "(x,y)", "F(x,y)", "x1_", "(", ")", ",", "_x", "1x", "(x\ty)", "é", "٣"],
)
LETTERS = (
    ["a1[-]", "A1[2]", "s1[-]", "S2[1.2]", "a2[-]", "a1[1.1]", "a1[-] A1[-]", "a1[2] s1[-]"],
    ["a1[0]", "a1[]", "a1[-]]", "a1[[-]", "a[-]", "b1[-]", "a1", "a١[-]", "a1[1.é]",
     "a1[-.1]", "a1[1..2]", "a01[01]", "(x y)"],
)
# tokens any command may meet: empty words, separators and stray flags
STRAY = ["", " ", "--", "-", "--n", "--help", "--theory"]

# every command with its flags and the tokens it reads, if any; a flag in
# SIZED is always given
COMMANDS = {
    ("term", "normalize"): ({"--n": N}, TERMS),
    ("term", "rank"): ({"--n": N}, TERMS),
    ("trees", "count"): ({"--n": N, "--k": (["0", "1", "2", "3"], N[1])}, None),
    ("op", "compose"): ({"--n": N, "--theory": THEORIES}, LETTERS),
    ("word", "eval"): ({"--n": N, "--theory": THEORIES}, LETTERS),
    ("word", "eq"): ({"--n": N, "--theory": THEORIES}, LETTERS),
    ("check", "axioms"): ({"--n": N, "--theory": THEORIES, "--max-addr": SMALL}, None),
    ("check", "coherence"): ({"--n": N, "--max-nodes": SMALL}, None),
    ("check", "moore"): ({"--n": (N[0] + ["5", "6"], N[1])}, None),
    ("export", "dot"): ({"--n": N, "--theory": THEORIES}, LETTERS),
}
SIZED = {"--max-addr", "--max-nodes"}
# command words out of place, for a prefix that names no command
COMMAND_WORDS = ["term", "trees", "word", "eq", "check", "moore", "export", "nonsense", ""]


@st.composite
def mostly(draw, choices):
    good, edge = choices
    return draw(st.sampled_from(good if draw(st.integers(0, 3)) else edge))


@st.composite
def argv_lists(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.lists(st.sampled_from(COMMAND_WORDS + STRAY), max_size=3))
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags, tokens = COMMANDS[command]
    units = [
        [flag, draw(mostly(values))]
        for flag, values in flags.items()
        if flag in SIZED or draw(st.integers(0, 9)) < 9
    ]
    argv = list(command) + [arg for unit in draw(st.permutations(units)) for arg in unit]
    if tokens:
        words = [draw(mostly(tokens)) for _ in range(draw(st.integers(1, 4)))]
        if command == ("word", "eq") and draw(st.integers(0, 3)) < 3:
            words.insert(draw(st.integers(0, len(words))), "--")
        argv += words
    if draw(st.integers(0, 4)) == 4:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(STRAY)))
    return argv


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(argv_lists())
def test_exit_codes_hold_for_any_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv
    if code == 2:
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
        assert len(errors) <= 1, argv


def parse_outcome(parser, argv):
    """The namespace `argv` parses to, as a dict, or (exit code, stdout,
    stderr) when the parser exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(argv_lists())
def test_parser_matches_the_reference_on_any_argv(argv):
    want = parse_outcome(cli_reference._build_parser(), argv)
    assert parse_outcome(_build_parser(), argv) == want, argv


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(argv_lists())
def test_reader_gives_the_parsers_namespace_or_declines(argv):
    args = _read_argv(argv)
    assert args is None or vars(args) == parse_outcome(_build_parser(), argv), argv


EQ = ["word", "eq"]
C2 = ["--n", "2", "--theory", "c"]


@pytest.mark.parametrize("argv", [
    EQ + ["--theory", "sc", "--n", "02", "a1[-]", "", "s1[1.2]"],
    EQ + C2,  # no first word
    ["check", "axioms", "--theory", "c", "--n", "2"],  # --max-addr's default
    ["check", "coherence", "--max-nodes", "0", "--n", "2"],
    ["trees", "count", "--k", "1", "--n", "2"],
    ["term", "rank", "--n", "3", "(x", "y z)"],
])
def test_reader_reads_the_success_shape(argv):
    args = _read_argv(argv)
    assert args is not None and vars(args) == parse_outcome(_build_parser(), argv)


@pytest.mark.parametrize("argv", [
    EQ + ["--the", "c", "--n", "2", "a1[-]"],  # an abbreviation
    EQ + ["--n=2", "--theory", "c", "a1[-]"],
    ["check", "moore", "--n", "2", "--n", "3"],  # a repeat
    EQ + ["-h"],
    EQ + C2 + ["--help"],
    ["check", "moore", "--n", "-1"],
    EQ + ["a1[-]"] + C2,  # a word before the options
    ["check", "moore", "--n", "9" * 5000],
    EQ + ["--n", "2", "a1[-]"],  # no --theory
    ["word", "eval"] + C2,  # no word
    ["check", "moore", "--n", "3", "x"],
    ["check", "moore", "--n"],
    ["check", "axioms", "--n", "2", "--theory", "x"],
    ["word"],
    [],
])
def test_reader_declines_all_but_the_success_shape(argv):
    assert _read_argv(argv) is None
