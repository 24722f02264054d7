"""One pass of a benchmark workload, in a fresh single-threaded process.

    python3 bench/worker.py <workload> <seed> <setup|pass|trace> [spans-file]

The worker imports `treegroups` from the checkout's `src/`, generates the
workload's items from the seed, warms up on an input outside the item set,
and notes the moment it is ready.  In `setup` mode it stops there.  In
`pass` mode it sends every item once, in order, through the library's public
entry points and times each, as reference seconds (`speed.py`: wall time
scaled by the host's speed, sampled while the pass runs); `trace` mode does
the same with the layer wrappers installed and writes the spans when it
ends.  The last line of its
standard output is one JSON object with what it saw; the verdicts are
judged by the caller, which knows the answers.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import speed
import workloads

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def import_library():
    """Import `treegroups` from this checkout's `src/`, and nowhere else."""
    sys.path.insert(0, str(SRC_DIR))
    import treegroups
    from treegroups import cli, diagrams

    origin = Path(treegroups.__file__).resolve()
    if SRC_DIR.resolve() not in origin.parents:
        raise ImportError(f"treegroups imported from {origin}, not from {SRC_DIR}")
    return cli, diagrams


def _run_cli(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def word_verdict(lib, item):
    cli, _ = lib
    code, out = _run_cli(cli, item["input"]["argv"])
    return {"exit": code, "out": out.strip()}, code not in (0, 1)


def suite_verdict(lib, item):
    cli, _ = lib
    code, out = _run_cli(cli, item["input"]["argv"])
    lines = out.splitlines()
    body = lines[:-1]
    passed = sum(1 for line in body if line.endswith(" PASS"))
    return ({"exit": code, "last": lines[-1] if lines else "",
             "pass_lines": passed, "other_lines": len(body) - passed},
            code not in (0, 1))


def chain_verdict(lib, item):
    _, diagrams = lib
    chain = item["input"]
    checkpoints = set(chain["checkpoints"])
    same, prefixes, parsed, product = [], {}, [], None
    for depth, spec in enumerate(chain["diagrams"], start=1):
        d = diagrams.from_json_dict(spec)
        product = d if product is None else diagrams.multiply(product, d)
        parsed.append(d)
        if depth in checkpoints:
            prefixes[depth] = diagrams.to_json_dict(product)
    for depth in range(len(parsed), 0, -1):
        product = diagrams.multiply(product, diagrams.invert_diagram(parsed[depth - 1]))
        if depth - 1 in prefixes:
            same.append(diagrams.to_json_dict(product) == prefixes[depth - 1])
    return {"checkpoints": same, "final": diagrams.to_json_dict(product)}, False


VERDICTS = {
    workloads.WORDS_LONG: word_verdict,
    workloads.CHECK_SUITES: suite_verdict,
    workloads.DIAGRAM_PRODUCTS: chain_verdict,
}


def run_items(workload, lib, items, clock):
    """Send every item once, in order.  Returns each item's (start, end) on
    `clock`, what was seen, and how many items failed (raised, or exited
    with a code other than 0 and 1)."""
    verdict = VERDICTS[workload]
    spans, seen, failed = [], [], 0
    for item in items:
        start = clock()
        try:
            observed, bad = verdict(lib, item)
        except Exception as exc:  # a raising item is a failed item, not a crash
            observed, bad = {"error": repr(exc)}, True
        spans.append((start, clock()))
        seen.append(observed)
        failed += bad
    return spans, seen, failed


def warm_up(workload, lib) -> None:
    """One small input of the workload's kind that is not in its item set."""
    cli, diagrams = lib
    if workload == workloads.WORDS_LONG:
        _run_cli(cli, ["word", "eq", "--n", "2", "--theory", "sc",
                       "a1[-]", "s1[1]", "--", "a1[-]", "s1[1]"])
    elif workload == workloads.CHECK_SUITES:
        _run_cli(cli, ["check", "moore", "--n", "2"])
    else:
        d = diagrams.from_json_dict({"n": 2, "domain": [0, 0], "range": [0, 0],
                                     "perm": [2, 1]})
        diagrams.multiply(d, diagrams.invert_diagram(d))


def main(argv) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    lib = import_library()
    items = workloads.make_items(workload, seed)
    digest = workloads.digest(items)
    warm_up(workload, lib)
    ready = time.monotonic()
    result = {"ready": ready, "digest": digest}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        meter = speed.Speedometer()
        meter.start()
        try:
            spans, seen, failed = run_items(workload, lib, items, meter.clock)
        finally:
            meter.stop()
            if tracer is not None:
                tracer.uninstall()
        times = meter.scale(spans)
        result.update(times=times, seen=seen, failed=failed, attempted=len(items),
                      verdict_s=sum(times),
                      wall_s=spans[-1][1] - spans[0][0],
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer is not None:
            result["layers"] = tracer.metrics()
            if len(argv) > 3:
                tracer.write_spans(argv[3])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
