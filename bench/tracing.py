"""Per-layer timing of `treegroups`, taken from outside the library.

A `Tracer` wraps the public functions listed in `TRACED`, one module per
layer.  Each wrapper is installed in every `treegroups` namespace that holds
the function, so a call is seen whether it goes through the defining module
or through a name imported elsewhere (`mgu` lives in `unify` and
`operators`, `eval_diagram` in `coherence` and `cli`).  `uninstall` puts the
originals back.

A wrapper records one span per outermost call: a recursive function
(`apply_subst`, `positive_paths`) re-entering itself is passed straight
through, so its time is counted once.  Spans stay in memory until
`write_spans`.  Counters derived from arguments and results are computed
after the span closes, and the time they take is excluded from every
enclosing span.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

PACKAGE = "treegroups"

TRACED = {
    "cli": ("run",),
    "coherence": (
        "theory_for",
        "parse_word",
        "eval_diagram",
        "words_equal",
        "check_axioms",
        "check_coherence",
        "check_moore",
        "positive_paths",
        "apply_word_to_term",
        "fill_square",
    ),
    "operators": ("translated_seed", "compose", "canonical"),
    "unify": ("mgu",),
    "terms": ("apply_subst", "enumerate_terms", "apply_assoc"),
    "diagrams": ("to_diagram", "reduce", "multiply", "invert_diagram"),
}


def term_nodes(t) -> int:
    """Variables plus application nodes of a term."""
    count = 0
    stack = [t]
    while stack:
        u = stack.pop()
        count += 1
        kids = getattr(u, "children", None)
        if kids:
            stack.extend(kids)
    return count


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


class Tracer:
    def __init__(self):
        self.names: list = []
        self._calls: list = []
        self._incl: list = []
        self._self: list = []
        self._stack: list = []
        self._patched: list = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._hooks = {
            "coherence.eval_diagram": self._on_eval_diagram,
            "coherence.positive_paths": self._on_positive_paths,
            "operators.compose": self._on_compose,
            "diagrams.reduce": self._on_reduce,
        }
        self.letters = 0
        self.paths = 0
        self.paths_evaluated = 0
        self.distinct_images = 0
        self._path_list: list = []
        self._path_ids: set = set()
        self._images: set = set()
        self.seed_nodes_peak = 0
        self._last_seed = None
        self.collapses = 0
        self.peak_leaves = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        importlib.import_module(PACKAGE)
        for layer, functions in TRACED.items():
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue
            for name in functions:
                original = getattr(module, name, None)
                if callable(original):
                    key = f"{layer}.{name}"
                    self._patch(original, self._wrap(key, original, self._hooks.get(key)))

    def _patch(self, original, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == PACKAGE or module_name.startswith(PACKAGE + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- spans --------------------------------------------------------------

    def _wrap(self, key, fn, hook):
        name_id = len(self.names)
        self.names.append(key)
        self._calls.append(0)
        self._incl.append(0.0)
        self._self.append(0.0)
        is_open = [False]
        stack = self._stack
        clock = time.perf_counter
        names, parents, starts = self.span_name, self.span_parent, self.span_start
        ends = self.span_end
        close = self._close

        def wrapper(*args, **kwargs):
            if is_open[0]:
                return fn(*args, **kwargs)
            is_open[0] = True
            frame = [len(starts), 0.0, 0.0]
            names.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            ends.append(0.0)
            stack.append(frame)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                is_open[0] = False
                close(frame, name_id, start, clock(), 0.0)
                raise
            end = clock()
            is_open[0] = False
            if hook is not None:
                hook(args, kwargs, result)
            close(frame, name_id, start, end, clock() - end)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def _close(self, frame, name_id, start, end, hook_time) -> None:
        stack = self._stack
        stack.pop()
        span, child, excluded = frame
        duration = end - start - excluded
        self.span_end[span] = end
        self._calls[name_id] += 1
        self._incl[name_id] += duration
        self._self[name_id] += duration - child
        if stack:
            parent = stack[-1]
            parent[1] += duration
            parent[2] += excluded + hook_time

    # -- derived counters ---------------------------------------------------

    def _on_eval_diagram(self, args, kwargs, result) -> None:
        word = _first_arg(args, kwargs, "word")
        self.letters += len(word)
        if id(word) in self._path_ids:
            # Each path counts once: the empty path is the shared (), which
            # other callers evaluate too.
            self._path_ids.remove(id(word))
            self.paths_evaluated += 1
            self._images.add(result)

    def _on_positive_paths(self, args, kwargs, result) -> None:
        # A path is recognised by identity when eval_diagram receives it;
        # holding the list keeps those identities from being reused.
        self.distinct_images += len(self._images)
        self._images = set()
        self._path_list = result
        self._path_ids = {id(path) for path in result}
        self.paths += len(result)

    def _on_compose(self, args, kwargs, result) -> None:
        # A composite's seed is an instance of its first factor's, so along
        # a chain compose(compose(x, a), b) ... sizes never shrink; only the
        # last seed of each chain needs measuring.
        first = _first_arg(args, kwargs, "op1")
        if self._last_seed is not None and first is not self._last_seed:
            self._measure_seed(self._last_seed)
        self._last_seed = result

    def _measure_seed(self, seed) -> None:
        if hasattr(seed, "source"):
            nodes = term_nodes(seed.source) + term_nodes(seed.target)
            self.seed_nodes_peak = max(self.seed_nodes_peak, nodes)

    def _on_reduce(self, args, kwargs, result) -> None:
        before = _first_arg(args, kwargs, "d")
        leaves_in = len(before.perm)
        self.peak_leaves = max(self.peak_leaves, leaves_in)
        self.collapses += (leaves_in - len(result.perm)) // (before.n - 1)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Every traced function's calls, inclusive and self seconds, and the
        derived counters; functions the library no longer has read 0."""
        out = {}
        for layer, functions in TRACED.items():
            for name in functions:
                key = f"{layer}.{name}"
                out[f"{key}.calls"] = 0
                out[f"{key}.s"] = 0.0
                out[f"{key}.self_s"] = 0.0
        for name_id, key in enumerate(self.names):
            out[f"{key}.calls"] += self._calls[name_id]
            out[f"{key}.s"] += self._incl[name_id]
            out[f"{key}.self_s"] += self._self[name_id]
        if self._last_seed is not None:
            self._measure_seed(self._last_seed)
            self._last_seed = None
        images = self.distinct_images + len(self._images)
        out["coherence.letters_evaluated"] = self.letters
        out["coherence.positive_paths.paths"] = self.paths
        out["coherence.paths_per_image"] = self.paths_evaluated / images if images else 0.0
        out["operators.seed_nodes_peak"] = self.seed_nodes_peak
        out["diagrams.reduce.collapses"] = self.collapses
        out["diagrams.peak_leaves"] = self.peak_leaves
        out["diagrams.leaves_cache_entries"] = _leaves_cache_entries()
        return out

    def write_spans(self, path) -> None:
        """A JSON header line, then the span arrays as raw native-endian
        bytes in header order; `read_spans` loads them back."""
        arrays = (self.span_name, self.span_parent, self.span_start, self.span_end)
        header = {
            "functions": self.names,
            "spans": len(self.span_start),
            "arrays": [["function", "i"], ["parent", "q"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for values in arrays:
                values.tofile(out)


def read_spans(path) -> tuple:
    """(function names, {array name: array}) from a `write_spans` file.
    A span's parent is the index of the enclosing span, or -1."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        columns = {}
        for name, code in header["arrays"]:
            values = array(code)
            values.fromfile(f, header["spans"])
            columns[name] = values
    return header["functions"], columns


def _leaves_cache_entries() -> int:
    diagrams = sys.modules.get(f"{PACKAGE}.diagrams")
    cache_info = getattr(getattr(diagrams, "leaves", None), "cache_info", None)
    return cache_info().currsize if cache_info else 0
