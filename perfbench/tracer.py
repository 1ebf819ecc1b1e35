"""Spans around the package's public functions, installed from outside.

The tracer wraps every public function of each traced module, plus the
methods of the classes named in CLASSES, and rebinds every name in every
``tilewalks`` namespace that holds one of them: ``elimination`` imports
``eval_system`` by name, ``render`` and ``cli`` import ``enumerate_tilings``,
``walks`` imports ``count_tilings``, and ``cli.SEQUENCES`` holds route
functions in a dict and in closures. A span is (layer, start, end, parent)
and lives in memory until the end of the pass, when ``drain`` turns the
pass's spans into self time per layer. Spans inside the package (splitting
``boards._raw_tilings`` from ``walks._walk_counts``) are not recorded.
"""

import importlib
import inspect
from collections import Counter
from time import perf_counter

LAYERS = (
    "boards", "walks", "recurrences", "qsqrt5", "closedforms",
    "polynomials", "elimination", "oeis", "render", "cli",
)

# Classes whose methods carry their layer's work.
CLASSES = {
    "qsqrt5": ("QSqrt5",),
    "polynomials": ("IntPoly",),
    "elimination": ("RatMatrix",),
}
SKIP_METHODS = frozenset({
    "__init__", "__post_init__", "__repr__", "__str__", "__hash__",
    "__getitem__", "__bool__", "__setattr__", "__delattr__",
})

# Per-layer metric -> (end-to-end metric it should move, workload, how it is
# obtained). "computed" counts are derived from the inputs of a call,
# "measured" ones are timed or counted at the span boundary.
LAYER_METRICS = {
    "walks.self_s": ("wall_s", "brute-oracle", "measured"),
    "walks.tilings": ("wall_s", "brute-oracle", "computed"),
    "walks.column_steps": ("wall_s", "brute-oracle", "computed"),
    "walks.us_per_tiling": ("wall_s", "brute-oracle", "measured/computed"),
    "boards.self_s": ("wall_s, peak_rss_mib", "verify-objects", "measured"),
    "boards.tilings_built": ("wall_s, peak_rss_mib", "verify-objects", "measured"),
    "recurrences.self_s": ("wall_s", "deep-terms", "measured"),
    "recurrences.terms": ("wall_s", "deep-terms", "computed"),
    "recurrences.max_bits": ("wall_s", "deep-terms", "computed"),
    "closedforms.self_s": ("wall_s", "deep-terms", "measured"),
    "qsqrt5.self_s": ("wall_s", "deep-terms", "measured"),
    "qsqrt5.floor_calls": ("wall_s", "deep-terms", "measured"),
    "qsqrt5.sign_calls": ("wall_s", "deep-terms", "measured"),
    "elimination.self_s": ("wall_s", "verify-objects", "measured"),
    "polynomials.self_s": ("wall_s", "verify-objects", "measured"),
    "oeis.self_s": ("wall_s", "verify-objects", "measured"),
    "render.self_s": ("wall_s, peak_rss_mib", "verify-objects", "measured"),
    "render.tilings_per_svg": ("wall_s, peak_rss_mib", "verify-objects", "computed"),
    "cli.self_s": ("wall_s", "deep-terms", "measured"),
    "cli.output_bytes": ("wall_s", "deep-terms", "measured"),
    "oeis.import_s": ("setup_s", "every workload", "measured"),
    "cli.import_s": ("setup_s", "every workload", "measured"),
    **{f"{layer}.errors": ("ops_ok_frac", "every workload", "measured")
       for layer in LAYERS},
    "ops.known_defect_failures": ("ops_ok_frac", "deep-terms", "measured"),
    "trace.wall_s": ("wall_s", "every workload", "measured"),
    "trace.self_sum_s": ("wall_s", "every workload", "measured"),
    "trace.overhead_s": ("none: cost of tracing", "every workload", "measured"),
    "trace.spans": ("none: cost of tracing", "every workload", "measured"),
}


def _bits(values):
    return max((abs(v).bit_length() for v in values), default=0)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []  # (span index, layer) of the open spans
        self.calls = Counter()
        self.errors = Counter()  # exceptions that leave a layer
        self.work = Counter()
        self.max_bits = 0
        self._boards = importlib.import_module("tilewalks.boards")
        self._count_tilings = self._boards.count_tilings
        self._hooks = {
            "walks.brute_v": self._brute_v,
            "walks.brute_w_by_line": self._brute_w_by_line,
            "boards.enumerate_tilings": self._tilings_built,
            "boards.enumerate_partial_tilings": self._tilings_built,
            "recurrences.eval_recurrence": self._recurrence,
            "recurrences.eval_system": self._system,
            "render.svg_for_tiling": self._svg,
        }

    # -- work counts -------------------------------------------------------

    def _tilings(self, rows, n, squares_allowed=True):
        Board = self._boards.Board
        if squares_allowed:
            return self._count_tilings(Board(rows, n))
        if rows == 2:  # dominoes-only 2xn tilings: F(n+1), as for 1xn
            return self._count_tilings(Board(1, n))
        return 1 if n % 2 == 0 else 0

    def _brute_v(self, bound, result):
        n = bound.arguments["n"]
        tilings = self._tilings(1, n)
        self.work["walks.tilings"] += tilings
        self.work["walks.column_steps"] += tilings * n

    def _brute_w_by_line(self, bound, result):
        n = bound.arguments["n"]
        tilings = self._tilings(2, n, bound.arguments["squares_allowed"])
        self.work["walks.tilings"] += tilings
        self.work["walks.column_steps"] += tilings * n

    def _tilings_built(self, bound, result):
        self.work["boards.tilings_built"] += len(result)

    def _recurrence(self, bound, result):
        self.work["recurrences.terms"] += len(result.values)
        self.max_bits = max(self.max_bits, _bits(result.values))

    def _system(self, bound, result):
        for table in result.values():
            self.work["recurrences.terms"] += len(table.values)
            self.max_bits = max(self.max_bits, _bits(table.values))

    def _svg(self, bound, result):
        board = bound.arguments["board"]
        self.work["render.svgs"] += 1
        self.work["render.tilings"] += self._tilings(
            board.rows, board.cols, bound.arguments["squares_allowed"])

    # -- spans -------------------------------------------------------------

    def _wrap(self, layer, qualname, fn):
        spans, stack, calls = self.spans, self.stack, self.calls
        hook = self._hooks.get(qualname)
        signature = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent, parent_layer = stack[-1] if stack else (-1, None)
            stack.append((idx, layer))
            calls[qualname] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (layer, start, perf_counter(), parent)
                stack.pop()
                if parent_layer != layer:
                    self.errors[layer] += 1
                raise
            spans[idx] = (layer, start, perf_counter(), parent)
            stack.pop()
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap the traced callables and rebind every name that holds one,
        for the rest of the process."""
        package = importlib.import_module("tilewalks")
        modules = {layer: importlib.import_module(f"tilewalks.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                wrapped[id(obj)] = self._wrap(layer, f"{layer}.{name}", obj)
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for name, obj in list(vars(cls).items()):
                    if inspect.isfunction(obj) and name not in SKIP_METHODS:
                        setattr(cls, name, self._wrap(layer, f"{layer}.{cls_name}.{name}", obj))
        # keyed by id: the originals stay alive inside their wrappers
        for ns in (package, *modules.values()):
            for name, obj in list(vars(ns).items()):
                if id(obj) in wrapped:
                    setattr(ns, name, wrapped[id(obj)])
        for routes in modules["cli"].SEQUENCES.values():
            for route, fn in list(routes.items()):
                if id(fn) in wrapped:
                    routes[route] = wrapped[id(fn)]
                for cell in getattr(fn, "__closure__", None) or ():
                    if id(cell.cell_contents) in wrapped:
                        cell.cell_contents = wrapped[id(cell.cell_contents)]

    def drain(self):
        """Self time per layer of the spans recorded since the last drain."""
        spans = self.spans
        child = [0.0] * len(spans)
        for layer, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_time = Counter()
        for (layer, start, end, parent), inner in zip(spans, child):
            self_time[layer] += (end - start) - inner
        count = len(spans)
        spans.clear()
        return self_time, count


def import_times(stderr):
    """Cumulative seconds per module from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        out.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return out
