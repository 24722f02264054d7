"""Tests of the benchmark itself: seeded inputs, known answers, verdicts,
the layer wrappers and the command's exit codes.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from treegroups import cli, coherence, diagrams, operators, terms, unify  # noqa: E402

LIB = (cli, diagrams)


def _clock():
    return 0.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_digest(workload):
    first = workloads.digest(workloads.make_items(workload, 7))
    assert workloads.digest(workloads.make_items(workload, 7)) == first
    if workload != workloads.CHECK_SUITES:
        assert workloads.digest(workloads.make_items(workload, 8)) != first


@pytest.mark.parametrize("n, theory", list(workloads.WORD_LENGTHS))
def test_word_pairs_have_the_constructed_answer(n, theory):
    rng = random.Random(n)
    items = [workloads.word_item(rng, n, theory, length, kind)
             for kind in ("equal-cancel", "equal-swap", "unequal")
             for length in (2, 3, 5)]
    _, seen, failed = worker.run_items(workloads.WORDS_LONG, LIB, items, _clock)
    assert failed == 0
    assert [workloads.wrong_verdicts(workloads.WORDS_LONG, item, s)
            for item, s in zip(items, seen)] == [0] * len(items)
    assert {s["out"] for s in seen} == {"equal", "unequal"}


def test_swapped_letters_sit_at_orthogonal_addresses():
    rng = random.Random(3)
    for _ in range(50):
        w1, w2, equal = workloads.build_pair(rng, 3, "sc", 4, "equal-swap")
        at = next(k for k in range(3) if w1[k] != w2[k])
        assert equal and (w1[at], w1[at + 1]) == (w2[at + 1], w2[at])
        assert workloads.orthogonal(w1[at][3], w1[at + 1][3])


SMALL_SUITES = [
    (["check", "axioms", "--n", "2", "--theory", "c", "--max-addr", "1"],
     workloads.axioms_report_lines(2, "c", 1)),
    (["check", "axioms", "--n", "3", "--theory", "sc", "--max-addr", "0"],
     workloads.axioms_report_lines(3, "sc", 0)),
    (["check", "axioms", "--n", "4", "--theory", "sc", "--max-addr", "0"],
     workloads.axioms_report_lines(4, "sc", 0)),
    (["check", "coherence", "--n", "2", "--max-nodes", "3"],
     workloads.coherence_report_lines(2, 3)),
    (["check", "coherence", "--n", "3", "--max-nodes", "2"],
     workloads.coherence_report_lines(3, 2)),
    (["check", "moore", "--n", "3"], workloads.moore_report_lines(3)),
    (["check", "moore", "--n", "4"], workloads.moore_report_lines(4)),
]


def test_suite_report_sizes_match_closed_forms():
    items = [{"input": {"argv": argv}, "expect": {"exit": 0, "pass_lines": lines}}
             for argv, lines in SMALL_SUITES]
    _, seen, failed = worker.run_items(workloads.CHECK_SUITES, LIB, items, _clock)
    assert failed == 0
    for item, s in zip(items, seen):
        assert workloads.wrong_verdicts(workloads.CHECK_SUITES, item, s) == 0, s


def test_closed_forms_by_hand():
    assert workloads.axioms_report_lines(2, "c", 2) == 7
    assert workloads.axioms_report_lines(4, "sc", 2) == 22 * 21
    assert workloads.coherence_report_lines(2, 5) == 1 + 1 + 2 + 5 + 14 + 42
    assert workloads.coherence_report_lines(3, 4) == 1 + 1 + 3 + 12 + 55
    assert [workloads.moore_report_lines(n) for n in (3, 4, 5)] == [4, 7, 11]


def test_a_skipped_instance_counts_as_wrong():
    item = {"expect": {"exit": 0, "pass_lines": 40}}
    seen = {"exit": 0, "last": "all-pass", "pass_lines": 39, "other_lines": 0}
    assert workloads.wrong_verdicts(workloads.CHECK_SUITES, item, seen) == 1


def test_small_chains_unwind_to_the_identity(monkeypatch):
    monkeypatch.setattr(workloads, "CHAINS", ((2, 5, 2, 2), (3, 4, 3, 1)))
    items = workloads.make_items(workloads.DIAGRAM_PRODUCTS, 1)
    for chain in items:
        for spec in chain["input"]["diagrams"]:
            diagrams.from_json_dict(spec)
    spans, seen, failed = worker.run_items(workloads.DIAGRAM_PRODUCTS, LIB, items, _clock)
    assert failed == 0 and len(spans) == 2
    assert [len(s["checkpoints"]) for s in seen] == [1, 2]
    assert [workloads.wrong_verdicts(workloads.DIAGRAM_PRODUCTS, item, s)
            for item, s in zip(items, seen)] == [0, 0]


def test_tail_leaves_ten_values_beyond_it():
    percentile, value = run.tail(range(100, 0, -1))
    assert (percentile, value) == (90.0, 90)
    assert run.tail(range(10)) is None


TRACED_MODULES = (cli, coherence, operators, unify, terms, diagrams)


def _namespaces_holding(fn):
    return [(m.__name__, attr) for m in TRACED_MODULES
            for attr, value in vars(m).items() if value is fn]


def test_wrappers_cover_every_namespace_and_are_removed():
    originals = {(layer, name): getattr(sys.modules[f"treegroups.{layer}"], name)
                 for layer, names in tracing.TRACED.items() for name in names}
    where = {key: _namespaces_holding(fn) for key, fn in originals.items()}
    assert ("treegroups.operators", "mgu") in where[("unify", "mgu")]
    assert ("treegroups.cli", "eval_diagram") in where[("coherence", "eval_diagram")]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for key, fn in originals.items():
            assert _namespaces_holding(fn) == [], key
    finally:
        tracer.uninstall()
    assert {key: _namespaces_holding(fn) for key, fn in originals.items()} == where


def test_traced_word_counts_and_self_times(tmp_path):
    argv = ["word", "eq", "--n", "2", "--theory", "sc",
            "a1[-]", "s1[2]", "A1[1.2]", "--", "a1[-]", "s1[2]", "A1[1.2]"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert worker._run_cli(cli, argv) == (0, "equal\n")
    finally:
        tracer.uninstall()
    got = tracer.metrics()
    assert got["cli.run.calls"] == 1
    assert got["coherence.eval_diagram.calls"] == 2
    assert got["coherence.letters_evaluated"] == 6
    assert got["operators.compose.calls"] == 6
    assert got["unify.mgu.calls"] == 6
    assert got["diagrams.reduce.calls"] == 2
    assert got["operators.seed_nodes_peak"] > 0

    path = tmp_path / "spans.bin"
    tracer.write_spans(path)
    names, spans = tracing.read_spans(path)
    top = [k for k, parent in enumerate(spans["parent"]) if parent == -1]
    assert [names[spans["function"][k]] for k in top] == ["cli.run"]
    whole = spans["end"][top[0]] - spans["start"][top[0]]
    self_total = sum(got[f"{name}.self_s"] for name in names)
    assert self_total == pytest.approx(got["cli.run.s"], rel=1e-6)
    assert got["cli.run.s"] <= whole


def test_recursive_functions_get_one_span_per_outer_call():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t = terms.parse_term("(a (b (c d)))", terms.catalan_signature(2))
        paths = coherence.positive_paths(t, 2)
    finally:
        tracer.uninstall()
    got = tracer.metrics()
    assert got["coherence.positive_paths.calls"] == 1
    assert got["coherence.positive_paths.paths"] == len(paths) > 1


def test_each_path_is_evaluated_once_per_image_count():
    t = terms.parse_term("(x y)", terms.catalan_signature(2))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        (path,) = coherence.positive_paths(t, 2)
        coherence.eval_diagram(path, 2, "c")
        coherence.eval_diagram((), 2, "c")
    finally:
        tracer.uninstall()
    got = tracer.metrics()
    assert path == ()
    assert got["coherence.paths_per_image"] == 1.0
    assert got["coherence.letters_evaluated"] == 0


def test_reduce_collapses_are_counted_in_carets():
    d = diagrams.from_json_dict({"n": 3, "domain": [[0, 0, 0], 0, 0],
                                 "range": [[0, 0, 0], 0, 0], "perm": [1, 2, 3, 4, 5]})
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert diagrams.reduce(d) == diagrams.identity_diagram(3)
    finally:
        tracer.uninstall()
    got = tracer.metrics()
    assert got["diagrams.reduce.collapses"] == 2
    assert got["diagrams.peak_leaves"] == 5


def test_a_wrong_expected_answer_fails_the_command(monkeypatch, capsys):
    real = workloads.make_items

    def one_answer_flipped(workload, seed):
        items = real(workload, seed)
        items[0]["expect"]["final"] = {"n": 2, "domain": [0, 0], "range": [0, 0],
                                       "perm": [1, 2]}
        return items

    monkeypatch.setattr(run.workloads, "make_items", one_answer_flipped)
    code = run.main(["--workload", workloads.DIAGRAM_PRODUCTS, "--seed", "1",
                     "--seconds", "0", "--trace", "0"])
    out = capsys.readouterr().out
    result = json.loads(out.splitlines()[-1])
    assert code == 1 and result["correct"] is False
    assert "metric wrong_verdicts 1 count" in out


def test_the_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "words-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_what_the_command_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_times_are_scaled_by_the_speed_sampled_near_them():
    meter = speed.Speedometer()
    meter.stamps = [0.0, 1.0, 5.0, 6.0]
    ref = speed.REFERENCE_S
    meter.samples = [ref, ref, 2 * ref, 2 * ref]
    assert meter.scale([(0.0, 0.5), (5.0, 5.5)]) == pytest.approx([0.5, 0.25])
    assert meter.scale([(20.0, 21.0)]) == pytest.approx([1.0 / 1.5])


def test_the_sampler_is_removed_and_its_time_excluded():
    import signal
    import time

    meter = speed.Speedometer()
    meter.start()
    wall, begin = time.perf_counter(), meter.clock()
    while time.perf_counter() < wall + 3 * speed.INTERVAL_S:
        pass
    meter.stop()
    assert len(meter.samples) >= 3
    assert meter.clock() - begin < time.perf_counter() - wall
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
