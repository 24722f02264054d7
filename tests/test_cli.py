import argparse
import hashlib
import json
import os
import re
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import treegroups
from treegroups import cli, coherence
from treegroups.cli import run
from treegroups.operators import regroup_rule
from treegroups.terms import catalan_signature, enumerate_terms, format_term, parse_term

import cli_reference
import normalize_reference


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_term_normalize(capsys):
    code, out, _ = invoke(capsys, "term", "normalize", "--n", "2", "(x (y z))")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "((x y) z)"
    assert lines[1] == "steps 1"
    assert lines[2] == "ranks 1 0"


def test_term_normalize_variable(capsys):
    code, out, _ = invoke(capsys, "term", "normalize", "--n", "3", "x")
    assert code == 0
    assert out.splitlines() == ["x", "steps 0", "ranks 0"]


def test_term_normalize_agrees_with_the_reference(capsys):
    # all 2 611 shapes of these sizes: the printed normal form, step count
    # and rank trace are those of replaying each step and measuring its drop
    count = 0
    for n, kmax in ((2, 8), (3, 5), (4, 4), (5, 3)):
        signature = catalan_signature(n)
        for k in range(kmax + 1):
            for t in enumerate_terms(n, k):
                normal, steps, ranks = normalize_reference.trace(t, n)
                code, out, err = invoke(
                    capsys, "term", "normalize", "--n", str(n), format_term(t, signature)
                )
                assert (code, err) == (0, "")
                assert out.splitlines() == [
                    format_term(normal, signature),
                    f"steps {len(steps)}",
                    "ranks " + " ".join(map(str, ranks)),
                ]
                count += 1
    assert count == 2611


def test_term_normalize_a_long_right_comb_is_pinned(capsys):
    # 900 leaves, 898 steps: the normal form and the whole rank trace
    term = " ".join(f"(x{i}" for i in range(1, 900)) + " x900" + ")" * 899
    code, out, err = invoke(capsys, "term", "normalize", "--n", "2", term)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[1] == "steps 898" and lines[2].startswith("ranks 403651 402753 ")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f2aa78795024a94e1a7509e95011485c3a1b31d83befef05b5f0c341893eec86"
    )


def test_term_normalize_a_shallow_term_with_a_deep_normal_form(capsys):
    # balanced terms of 1 024 and 2 048 leaves nest 10 and 11 deep, and
    # their normal forms are left combs far past the recursion limit
    for m in (1024, 2048):
        terms = [f"x{j}" for j in range(1, m + 1)]
        while len(terms) > 1:
            terms = [f"({a} {b})" for a, b in zip(terms[::2], terms[1::2])]
        code, out, err = invoke(capsys, "term", "normalize", "--n", "2", terms[0])
        assert (code, err) == (0, "")
        comb = "(" * (m - 1) + "x1" + "".join(f" x{j})" for j in range(2, m + 1))
        assert out.splitlines()[0] == comb


def test_term_rank(capsys):
    code, out, _ = invoke(capsys, "term", "rank", "--n", "3", "(x1 x2 (x3 x4 x5))")
    assert code == 0
    assert out.strip() == "4"


def test_trees_count(capsys):
    code, out, _ = invoke(capsys, "trees", "count", "--n", "3", "--k", "2")
    assert code == 0
    assert out.strip() == "3 3 OK"
    code, out, _ = invoke(capsys, "trees", "count", "--n", "2", "--k", "5")
    assert out.strip() == "42 42 OK"


def test_op_compose(capsys):
    code, out, _ = invoke(
        capsys, "op", "compose", "--n", "2", "--theory", "c", "a1[-] a1[-]"
    )
    assert code == 0
    assert out.strip() == "(x1 (x2 (x3 x4))) -> (((x1 x2) x3) x4)"
    sig = catalan_signature(2)
    source_text, target_text = out.strip().split(" -> ")
    parse_term(source_text, sig)
    parse_term(target_text, sig)


def test_op_compose_at_a_large_arity_builds_the_one_rule_it_reads(capsys):
    coherence.letter_rule.cache_clear()
    code, out, _ = invoke(capsys, "op", "compose", "--n", "1000", "--theory", "c", "a1[-]")
    rule, sig = regroup_rule(1000, 1), catalan_signature(1000)
    expected = f"{format_term(rule.source, sig)} -> {format_term(rule.target, sig)}\n"
    assert (code, out) == (0, expected)
    assert coherence.letter_rule.cache_info().currsize == 1


def test_word_eval_json(capsys):
    code, out, _ = invoke(capsys, "word", "eval", "--n", "2", "--theory", "c", "a1[-]")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "n": 2,
        "domain": [0, [0, 0]],
        "range": [[0, 0], 0],
        "perm": [1, 2, 3],
    }


def test_word_eq_pentagon(capsys):
    code, out, _ = invoke(
        capsys,
        "word",
        "eq",
        "--n",
        "2",
        "--theory",
        "c",
        "a1[-] a1[-]",
        "--",
        "a1[2] a1[-] a1[1]",
    )
    assert code == 0
    assert out.strip() == "equal"


def test_word_eq_unequal(capsys):
    code, out, _ = invoke(
        capsys, "word", "eq", "--n", "2", "--theory", "sc", "a1[-]", "--", "s1[-]"
    )
    assert code == 1
    assert out.strip() == "unequal"


def test_word_eq_reports_the_first_bad_letter(capsys):
    # Letters are checked in reading order, w1's before w2's, although w2
    # acts on the pair in reverse.
    for w1, w2, message in (
        ("a1[-]", "a5[-] a1[9]", "generator index 5 out of range for n=2"),
        ("a1[-]", "a1[9] a5[-]", "generator address (9,) out of range for n=2"),
        ("a1[3]", "a5[-]", "generator address (3,) out of range for n=2"),
        ("a1[-] s1[-]", "a1[1.4]", "twist generators need the symmetric theory"),
    ):
        code, out, err = invoke(capsys, "word", "eq", "--n", "2", "--theory", "c", w1, "--", w2)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_word_eq_missing_separator(capsys):
    code, _, err = invoke(capsys, "word", "eq", "--n", "2", "--theory", "c", "a1[-]")
    assert code == 2
    assert "--" in err


def test_word_eq_help(capsys):
    code, out, _ = invoke(capsys, "word", "eq", "--help")
    assert code == 0
    assert out.startswith("usage:")


def test_word_eq_empty_word_is_the_identity(capsys):
    word = "s1[-] s1[-]"
    for words in ((word, "--"), ("--", word), ("--",)):
        code, out, err = invoke(capsys, "word", "eq", "--n", "2", "--theory", "sc", *words)
        assert (code, out, err) == (0, "equal\n", "")
    code, out, _ = invoke(capsys, "word", "eq", "--n", "2", "--theory", "sc", "--", "s1[-]")
    assert (code, out) == (1, "unequal\n")


def test_parse_error_exit_code(capsys):
    code, _, err = invoke(capsys, "term", "rank", "--n", "2", "(x y z)")
    assert code == 2
    assert "error" in err
    code, _, _ = invoke(capsys, "word", "eval", "--n", "2", "--theory", "c", "s1[-]")
    assert code == 2
    # indices are plain ASCII digits, not whatever int() accepts; the root is "-"
    for word in ("a+1[-]", "a1_0[-]", "a\uff11[-]", "a1[+1]", "a1[1_0]", "a1[]"):
        code, _, err = invoke(capsys, "word", "eval", "--n", "3", "--theory", "c", word)
        assert code == 2 and "error" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = invoke(capsys, "term", "rank", "(x y)")
    assert code == 2
    code, _, _ = invoke(capsys, "nonsense")
    assert code == 2


@pytest.mark.parametrize(
    "argv, flag, text",
    [
        (("check", "moore", "--n", "٣"), "--n", "٣"),
        (("check", "moore", "--n", "1_0"), "--n", "1_0"),
        (("check", "moore", "--n", "+3"), "--n", "+3"),
        (("check", "moore", "--n", " 3"), "--n", " 3"),
        (("trees", "count", "--n", "2", "--k", "٢"), "--k", "٢"),
    ],
    ids=["arabic-indic", "underscore", "plus", "space", "arabic-indic-k"],
)
def test_integer_options_are_ascii_digits(capsys, argv, flag, text):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument {flag}: invalid int value: {text!r}\n")


def test_integer_options_keep_leading_zeros_and_a_minus(capsys):
    code, out, _ = invoke(capsys, "check", "moore", "--n", "0003")
    assert (code, out.splitlines()[-1]) == (0, "all-pass")
    code, out, err = invoke(capsys, "check", "moore", "--n", "-1")
    assert (code, out, err) == (2, "", "error: n must be at least 2, got -1\n")
    code, _, err = invoke(capsys, "check", "moore", "--n", "9" * 5000)
    assert code == 2 and err.endswith(f"invalid int value: '{'9' * 5000}'\n")


def parser_levels(parser, path=()) -> list:
    """Every parser of the tree, with the command words that reach it."""
    levels = [(path, parser)]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                levels += parser_levels(sub, path + (name,))
    return levels


def action_specs(parser) -> list:
    """What each argument of a parser declares, apart from its type function
    and the parsers a subcommand argument holds."""
    return [
        (a.option_strings, a.dest, a.nargs, a.default, a.required, a.help, a.metavar)
        + (() if isinstance(a, argparse._SubParsersAction) else (a.choices,))
        for a in parser._actions
    ]


def test_parser_help_matches_the_reference():
    got = parser_levels(cli._build_parser())
    want = parser_levels(cli_reference._build_parser())
    assert [path for path, _ in got] == [path for path, _ in want]
    assert len(got) == 17  # the root, six groups and ten commands
    for (path, parser), (_, reference) in zip(got, want):
        assert parser.format_help() == reference.format_help(), path
        assert action_specs(parser) == action_specs(reference), path


def test_parser_built_once_gives_the_same_output(capsys):
    usage = ("word", "eval", "--n", "2")
    valid = ("word", "eval", "--n", "2", "--theory", "sc", "s1[-]")
    alone = []
    for argv in (usage, valid):
        cli._build_parser.cache_clear()
        alone.append(invoke(capsys, *argv))
    cli._build_parser.cache_clear()
    together = [invoke(capsys, *argv) for argv in (usage, valid)]
    assert together == alone
    assert alone[0][0] == 2 and "required" in alone[0][2]
    assert alone[1][0] == 0 and alone[1][2] == ""
    assert cli._build_parser.cache_info().misses == 1


def test_deep_address_exit_code(capsys):
    address = ".".join(["1"] * 1200)
    code, out, err = invoke(
        capsys, "word", "eval", "--n", "2", "--theory", "c", f"a1[{address}]"
    )
    assert (code, out, err) == (2, "", "error: input nested too deeply\n")


def test_deep_term_exit_code(capsys):
    term = "(x " * 1500 + "y" + ")" * 1500
    code, out, err = invoke(capsys, "term", "rank", "--n", "2", term)
    assert (code, out, err) == (2, "", "error: input nested too deeply\n")


def test_huge_number_exit_code(capsys):
    # CPython refuses int() of more than 4 300 digits; a generator index or
    # address step that long is a bad token like any other
    ones = "1" * 5000
    for word in (f"a{ones}[-]", f"a1[{ones}]"):
        for argv in (
            ("word", "eq", "--n", "2", "--theory", "c", word, "--", "a1[-]"),
            ("word", "eq", "--n", "2", "--theory", "c", "a1[-]", "--", word),
            ("word", "eval", "--n", "2", "--theory", "c", word),
            ("op", "compose", "--n", "2", "--theory", "c", word),
            ("export", "dot", "--n", "2", "--theory", "c", word),
        ):
            code, out, err = invoke(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1


def test_out_of_memory_exit_code(capsys, monkeypatch):
    def exhausted(args, second_word):
        raise MemoryError

    monkeypatch.setattr(cli, "_dispatch", exhausted)
    code, out, err = invoke(capsys, "word", "eval", "--n", "2", "--theory", "c", "a1[-]")
    assert (code, out, err) == (2, "", "error: out of memory\n")


def test_long_word_recursion_headroom(capsys):
    # The diagram path recurses once per tree level: 900 letters a1[-] (or
    # A1[-]) nest one side of the pair 901 levels deep.
    for letter in ("a1[-]", "A1[-]"):
        word = " ".join([letter] * 900)
        code, out, err = invoke(capsys, "word", "eval", "--n", "2", "--theory", "c", word)
        assert (code, err) == (0, "")
        assert json.loads(out)["n"] == 2
        code, out, err = invoke(capsys, "export", "dot", "--n", "2", "--theory", "c", word)
        assert (code, err) == (0, "")
        assert out.startswith("graph tree_diagram {")


def test_long_word_eq_recursion_headroom(capsys):
    # word eq reduces nothing and walks the pair on an explicit stack, so
    # its depth has no ceiling: 900 a1[-] against 900 A1[-] leave the
    # quotient 1 800 levels deep, and 5 000 letters are far past the
    # recursion limit.
    def word_eq(w1, w2):
        return invoke(capsys, "word", "eq", "--n", "2", "--theory", "c", w1, "--", w2)

    for letter in ("a1[-]", "A1[-]"):
        word = " ".join([letter] * 900)
        assert word_eq(word, word) == (0, "equal\n", "")
    assert word_eq(" ".join(["a1[-]"] * 900), " ".join(["A1[-]"] * 900)) == (1, "unequal\n", "")
    word = " ".join(["a1[-]"] * 5000)
    assert word_eq(word, word) == (0, "equal\n", "")


def test_long_word_compose_recursion_headroom(capsys):
    # The seed path recurses once per term level: 900 letters a1[-] nest
    # the seed 901 levels deep.
    word = " ".join(["a1[-]"] * 900)
    code, out, err = invoke(capsys, "op", "compose", "--n", "2", "--theory", "c", word)
    assert (code, err) == (0, "")
    assert out.count(" -> ") == 1


def test_check_moore(capsys):
    code, out, _ = invoke(capsys, "check", "moore", "--n", "3")
    assert code == 0
    assert out.strip().endswith("all-pass")
    assert "closure=6 expected=6 PASS" in out


def test_check_axioms(capsys):
    code, out, _ = invoke(
        capsys, "check", "axioms", "--n", "2", "--theory", "sc", "--max-addr", "1"
    )
    assert code == 0
    assert "pentagon n=2 i=1 base=- PASS" in out
    assert out.strip().endswith("all-pass")


def test_check_coherence(capsys):
    code, out, _ = invoke(capsys, "check", "coherence", "--n", "2", "--max-nodes", "3")
    assert code == 0
    assert out.strip().endswith("all-pass")


# The suites of the check-suites benchmark workload, in its order.
CHECK_SUITES = (
    [
        ["check", "axioms", "--n", str(n), "--theory", theory, "--max-addr", str(a)]
        for n in (2, 3, 4)
        for theory in ("c", "sc")
        for a in (0, 1, 2)
    ]
    + [
        ["check", "coherence", "--n", str(n), "--max-nodes", str(k)]
        for n, top in ((2, 5), (3, 4))
        for k in range(1, top + 1)
    ]
    + [["check", "moore", "--n", str(n)] for n in (3, 4, 5)]
)


def test_check_suite_outputs_are_pinned(capsys):
    # argv, exit code and report of every suite, 1 305 report lines in
    # all: a refactor of the checkers must leave every byte of them as it was
    text = ""
    for argv in CHECK_SUITES:
        code, out, _ = invoke(capsys, *argv)
        text += " ".join(argv) + "\n" + str(code) + "\n" + out
    assert len(CHECK_SUITES) == 30 and text.count("\n") == 2 * 30 + 1305
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b2509d3a75a15768525a8528d7ec75f63a33b444951bbca1de14c82967054802"
    )


def test_check_moore_outputs_are_pinned(capsys):
    # argv, exit code and report for n = 2..8, 95 report lines in all; above
    # n = 5 the suite checks the relations alone
    text = ""
    for n in range(2, 9):
        argv = ["check", "moore", "--n", str(n)]
        code, out, _ = invoke(capsys, *argv)
        text += " ".join(argv) + "\n" + str(code) + "\n" + out
    assert text.count("\n") == 2 * 7 + 95
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e6630d6e9fdd9195843fff6c168829ae6e67dd8075355a817352bf81f61272aa"
    )


def test_check_suites_refuse_to_check_nothing(capsys):
    for argv in (
        ["check", "axioms", "--n", "1", "--theory", "sc"],
        ["check", "axioms", "--n", "2", "--theory", "sc", "--max-addr", "-1"],
        ["check", "coherence", "--n", "2", "--max-nodes", "-1"],
        ["check", "moore", "--n", "0"],
        ["check", "moore", "--n", "1"],
    ):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_word_commands_refuse_arity_one_alike(capsys):
    # each looks the theory up before it builds anything, so each names the
    # tuple symbol's arity; word eval and export dot once named the diagram's
    for argv in (
        ("word", "eval", "--n", "1", "--theory", "c", "a1[-]"),
        ("export", "dot", "--n", "1", "--theory", "sc", "a1[-]"),
        ("word", "eq", "--n", "1", "--theory", "c", "a1[-]", "--", "a1[-]"),
        ("op", "compose", "--n", "1", "--theory", "sc", "a1[-]"),
    ):
        code, out, err = invoke(capsys, *argv)
        assert (code, out, err) == (2, "", "error: tuple symbol arity must be at least 2\n")


def _run_console(*argv):
    """The CLI in a fresh process with 1 GiB of address space and 20 s: a
    word command that built the theory's rules at a large n would run out
    of either."""
    root = Path(__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "treegroups.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=20,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
    )


def test_word_commands_at_a_large_arity_build_no_rules():
    proc = _run_console("word", "eq", "--n", "20000", "--theory", "sc", "a1[-]", "--", "a1[-]")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "equal\n", "")
    proc = _run_console("word", "eval", "--n", "20000", "--theory", "c", "a1[-]")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["n"] == 20000


def test_check_axioms_reports_a_failing_instance(monkeypatch, capsys):
    def broken_involution(n, i, base=()):
        # one twist is not the identity
        lhs = (coherence.S(i, base),)
        return coherence.RelationInstance("involution", (i,), base, lhs, ())

    monkeypatch.setattr(coherence, "involution", broken_involution)
    code, out, _ = invoke(
        capsys, "check", "axioms", "--n", "2", "--theory", "sc", "--max-addr", "0"
    )
    lines = out.splitlines()
    at = lines.index("involution n=2 i=1 base=- FAIL")
    assert lines[at + 1 : at + 3] == [
        '  lhs={"n":2,"domain":[0,0],"range":[0,0],"perm":[2,1]}',
        '  rhs={"n":2,"domain":0,"range":0,"perm":[1]}',
    ]
    assert "pentagon n=2 i=1 base=- PASS" in lines
    assert (code, lines[-1]) == (1, "some-fail")


def test_check_coherence_reports_a_fork_that_does_not_close(monkeypatch, capsys):
    sig = catalan_signature(2)
    forked = parse_term("((x1 x2) (x3 (x4 x5)))", sig)
    above = parse_term("(x1 (x2 (x3 (x4 x5))))", sig)  # a1[-] leads to forked
    elsewhere = parse_term("(x1 (x2 (x3 x4)))", sig)
    real_fill_square = coherence.fill_square

    def wrong_pentagon(t, m1, m2, n, theory_name):
        w1, w2, family = real_fill_square(t, m1, m2, n, theory_name)
        if t == forked and family == "pentagon":
            # drop the last letter of the longer closing word
            w1, w2 = (w1[:-1], w2) if len(w1) > len(w2) else (w1, w2[:-1])
        return w1, w2, family

    monkeypatch.setattr(coherence, "fill_square", wrong_pentagon)
    ok, lines = coherence.check_coherence(2, 4)
    status = {
        line.split(" term=")[1].split(" pairs=")[0]: line.rsplit(" ", 1)[1]
        for line in lines
    }
    assert not ok
    assert status[format_term(forked, sig)] == "FAIL"
    assert status[format_term(above, sig)] == "FAIL"
    assert status[format_term(elsewhere, sig)] == "PASS"
    code, out, _ = invoke(capsys, "check", "coherence", "--n", "2", "--max-nodes", "4")
    assert (code, out.splitlines()[-1]) == (1, "some-fail")


def test_export_dot(capsys):
    code, out, _ = invoke(
        capsys, "export", "dot", "--n", "2", "--theory", "sc", "s1[-]"
    )
    assert code == 0
    assert out.startswith("graph tree_diagram {")
    assert "style=dashed" in out


def test_round_trip_printed_term(capsys):
    code, out, _ = invoke(capsys, "term", "normalize", "--n", "3", "(x1 (x2 x3 x4) x5)")
    assert code == 0
    printed = out.splitlines()[0]
    sig = catalan_signature(3)
    assert parse_term(printed, sig) == parse_term("((x1 x2 x3) x4 x5)", sig)


def test_readme_examples(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.S).group(1)
    lines = block.splitlines()
    assert len(lines) == 10
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "treegroups"
        code, out, err = invoke(capsys, *argv[1:])
        assert code == 0, (line, err)
        if argv[1:3] == ["trees", "count"]:
            assert out.strip() == "3 3 OK"


def test_exports_resolve():
    for name in treegroups.__all__:
        assert getattr(treegroups, name) is not None, name


def test_well_formed_argv_builds_no_parser(capsys):
    """Every README example and a success argv of every command, options in
    another order and defaults left out, run without argparse; help builds it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.S).group(1)
    argvs = [shlex.split(line, comments=True)[1:] for line in block.splitlines()]
    argvs += [
        ["term", "normalize", "--n", "2", "(x", "(y z))"],
        ["term", "rank", "--n", "2", "(x (y z))"],
        ["trees", "count", "--k", "1", "--n", "2"],
        ["op", "compose", "--theory", "sc", "--n", "2", "s1[-]"],
        ["word", "eval", "--theory", "c", "--n", "3", "a1[-]", "A1[-]"],
        ["word", "eq", "--theory", "c", "--n", "2", "--", "a1[-] A1[-]"],
        ["check", "axioms", "--max-addr", "0", "--theory", "c", "--n", "2"],
        ["check", "coherence", "--n", "2", "--max-nodes", "2"],
        ["check", "moore", "--n", "2"],
        ["export", "dot", "--theory", "c", "--n", "2", ""],
    ]
    commands = {(group, command) for group, (_, cs) in cli._COMMANDS.items() for command in cs}
    assert {tuple(argv[:2]) for argv in argvs} == commands
    cli._build_parser.cache_clear()
    for argv in argvs:
        code, _, err = invoke(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert cli._build_parser.cache_info().misses == 0, argv
    assert invoke(capsys, "word", "eq", "--help")[0] == 0
    assert cli._build_parser.cache_info().misses == 1
