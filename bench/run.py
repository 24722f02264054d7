"""The treegroups benchmark command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see `workloads.py` and
`README.md`): words-long, check-suites, diagram-products.

Each pass of the workload's fixed item set runs in a fresh single-threaded
worker process (`worker.py`), one pass at a time: a closed loop with one
caller.  Passes repeat for about S seconds.  Set-up (interpreter start,
import, input generation, warm-up) is timed in every worker, and in a few
extra workers that only set up.  With --trace 1, untraced and traced passes
alternate and the per-layer metrics come from the traced ones.  Every time
metric is in reference seconds: wall time scaled by the host's speed,
measured alongside (`speed.py`); the report also gives the wall medians.

Every verdict is judged here against the answer known from how the input was
built.  The human-readable report comes first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The exit code is 0 when every verdict is right and no item failed,
1 when not, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
MIN_SETUP_ONLY = 8
WORKER_TIMEOUT_S = 150
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.run.calls": "count",
    "cli.run.self_s": "s",
    "coherence.theory_for.calls": "count",
    "coherence.theory_for.s": "s",
    "coherence.parse_word.s": "s",
    "coherence.eval_diagram.calls": "count",
    "coherence.eval_diagram.self_s": "s",
    "coherence.letters_evaluated": "letters",
    "coherence.positive_paths.paths": "paths",
    "coherence.positive_paths.s": "s",
    "coherence.paths_per_image": "ratio",
    "coherence.apply_word_to_term.s": "s",
    "coherence.fill_square.calls": "count",
    "operators.translated_seed.calls": "count",
    "operators.translated_seed.s": "s",
    "operators.compose.calls": "count",
    "operators.compose.self_s": "s",
    "operators.canonical.calls": "count",
    "operators.canonical.s": "s",
    "operators.seed_nodes_peak": "nodes",
    "unify.mgu.calls": "count",
    "unify.mgu.self_s": "s",
    "terms.apply_subst.calls": "count",
    "terms.apply_subst.s": "s",
    "terms.enumerate_terms.s": "s",
    "terms.apply_assoc.calls": "count",
    "diagrams.to_diagram.calls": "count",
    "diagrams.to_diagram.self_s": "s",
    "diagrams.reduce.calls": "count",
    "diagrams.reduce.s": "s",
    "diagrams.reduce.collapses": "carets",
    "diagrams.multiply.calls": "count",
    "diagrams.multiply.self_s": "s",
    "diagrams.peak_leaves": "leaves",
    "diagrams.leaves_cache_entries": "entries",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn(workload: str, seed: int, mode: str, spans=None) -> dict:
    """Run one worker to completion; adds its set-up seconds."""
    command = [sys.executable, str(BENCH_DIR / "worker.py"), workload, str(seed), mode]
    if spans is not None:
        command.append(str(spans))
    host_s = speed.burst()
    started = time.monotonic()
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise BenchError(f"{mode} worker printed no result") from exc
    result["setup_wall_s"] = result["ready"] - started
    result["setup_s"] = result["setup_wall_s"] * speed.REFERENCE_S / host_s
    return result


def tail(values):
    """(percentile, value) of the highest percentile that leaves at least
    TAIL_BEYOND values beyond it, or None for too few values."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        return None
    rank = len(ordered) - TAIL_BEYOND
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def per_item_medians(passes) -> list:
    """Each item's median time over the passes, in item order."""
    return [statistics.median(times) for times in zip(*(p["times"] for p in passes))]


def judge(workload: str, items, passes) -> int:
    wrong = 0
    for result in passes:
        for item, seen in zip(items, result["seen"]):
            wrong += workloads.wrong_verdicts(workload, item, seen)
    return wrong


def end_to_end(passes, setups) -> tuple:
    item_s = per_item_medians(passes)
    tail_at = tail(item_s)
    if tail_at is None:
        raise BenchError(f"{len(item_s)} items are too few for a tail percentile")
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "verdict_s": statistics.median(p["verdict_s"] for p in passes),
        "item_ms_p50": 1000 * statistics.median(item_s),
        "item_ms_tail": 1000 * tail_at[1],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups; wall"
                   f" {statistics.median(s['setup_wall_s'] for s in setups):.4f} s",
        "verdict_s": f"median of {len(passes)} passes; wall"
                     f" {statistics.median(p['wall_s'] for p in passes):.4f} s",
        "item_ms_p50": f"{len(item_s)} items, each the median of {len(passes)} passes",
        "item_ms_tail": f"p{tail_at[0]:.1f} of {len(item_s)} items",
        "peak_rss_mb": f"median of {len(passes)} worker processes",
    }
    return metrics, notes


def per_layer(traced, untraced) -> dict:
    metrics = {
        name: statistics.median_low(p["layers"][name] for p in traced)
        for name in PER_LAYER
        if name != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = (
        statistics.median(p["verdict_s"] for p in traced)
        - statistics.median(p["verdict_s"] for p in untraced)
    )
    return metrics


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Passes, one worker at a time, until the next would overrun `seconds`;
    each cycle also starts one set-up-only worker, and at least
    MIN_SETUP_ONLY of those run.  With tracing, untraced and traced passes
    alternate, at least one each.  Returns (passes, set-up-only results)."""
    modes = ("pass", "trace") if trace else ("pass",)
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
    passes, setups = [], []
    begin = time.monotonic()
    while True:
        setups.append(spawn(workload, seed, "setup"))
        for mode in modes:
            spans = OUT_DIR / f"spans-{workload}.bin" if mode == "trace" else None
            passes.append(spawn(workload, seed, mode, spans))
        elapsed = time.monotonic() - begin
        if elapsed + elapsed / len(setups) > seconds:
            break
    while len(setups) < MIN_SETUP_ONLY:
        setups.append(spawn(workload, seed, "setup"))
    return passes, setups


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def report(name: str, value, unit: str, note: str = "") -> None:
    print(f"metric {name} {value!r} {unit}" + (f"  ({note})" if note else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        items = workloads.make_items(args.workload, args.seed)
        digest = workloads.digest(items)
        passes, setup_only = run_passes(args.workload, args.seed, args.seconds,
                                        bool(args.trace))
        if any(p["digest"] != digest for p in setup_only + passes):
            raise BenchError("a worker generated different inputs")
        untraced = [p for p in passes if "layers" not in p]
        traced = [p for p in passes if "layers" in p]
        metrics, notes = end_to_end(untraced, setup_only + passes)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wrong = judge(args.workload, items, passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    print("record " + json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "inputs_sha256": digest,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "passes": len(untraced),
        "traced_passes": len(traced),
    }))
    for name, unit in END_TO_END.items():
        report(name, metrics[name], unit, notes[name])
    report("wrong_verdicts", wrong, "count")
    report("failed_fraction", failed / attempted, "ratio", f"{failed} of {attempted} items")
    if args.trace:
        metrics = per_layer(traced, untraced)
        for name, unit in PER_LAYER.items():
            report(name, metrics[name], unit)
        shown = PER_LAYER
    else:
        shown = END_TO_END
    correct = wrong == 0 and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in shown.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
