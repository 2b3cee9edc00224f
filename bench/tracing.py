"""Spans around the public functions of gridwords, recorded from outside.

`Tracer.install` wraps every public function defined in a measured module
and rebinds the wrapper wherever gridwords holds the original: under its
defining module's name and under every re-import (`gridwords.cli.is_simple`,
`gridwords.is_simple`, ...), so calls between modules nest.  Spans live in
flat arrays in memory until `write` puts them in a file.
"""

import gc
import importlib
import inspect
import math
import statistics
import sys
import time
from array import array

# The measured layers, one per module.  `render` is left out: no workload
# draws anything.
LAYERS = ("chainfile", "chain", "quadgraph", "lyndon", "convexity",
          "polyomino", "generate", "tiling", "cli")

# Functions whose calls, self time or both are reported per operation.
CALLS_AND_SELF = (
    "chain.is_simple", "chain.turning_number", "chain.reduce",
    "chain.orient_ccw", "chain.salient_reentrant", "chain.canonical_rotation",
    "convexity.split_extremal", "convexity.is_digitally_convex",
    "lyndon.lyndon_factorize", "lyndon.is_christoffel",
)
SELF_ONLY = (
    "quadgraph.normalize", "generate.gen_random_polyomino",
    "polyomino.boundary_word", "polyomino.enclosed_cells",
    "tiling.bn_factorizations",
)
DETECT = "quadgraph.detect_first_intersection"
PARSE = "chainfile.parse_chain_file"
SEARCH = "tiling.bn_factorizations"


def _steps(args, result):
    """Steps a detection walked: up to the first revisit, or the whole word."""
    return result[0] if result else len(args[0])


# Per-call work beyond the input length, for the functions that report it.
_WORK = {DETECT: _steps, SEARCH: lambda args, result: len(result)}


class Tracer:
    """Records one span per call of a wrapped function.

    A span is (function, start ns, end ns, parent span, operation, input
    length, work); parent is -1 for a span opened directly by the runner.
    """

    def __init__(self):
        self.names = []
        self.absent = []
        self.op = -1
        self.fid = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.ops = array("q")
        self.size = array("q")
        self.work = array("q")
        self._open = []
        self._undo = []

    def install(self, package, expected):
        """Wrap the public functions of every layer of `package`.

        `expected` names functions the report needs; any that no longer
        exists is recorded in `absent` instead of failing the run.
        """
        homes = [m for name, m in sys.modules.items()
                 if name == package.__name__ or name.startswith(package.__name__ + ".")]
        wrapped = set()
        for layer in LAYERS:
            module = importlib.import_module(f"{package.__name__}.{layer}")
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn)
                wrapped.add(name)
                for home in homes:
                    for key, value in list(vars(home).items()):
                        if value is fn:
                            setattr(home, key, wrapper)
                            self._undo.append((home, key, fn))
        self.absent = sorted(set(expected) - wrapped)

    def uninstall(self):
        for home, key, fn in reversed(self._undo):
            setattr(home, key, fn)
        self._undo.clear()

    def _wrap(self, name, fn):
        fid = len(self.names)
        self.names.append(name)
        work = _WORK.get(name)
        clock = time.perf_counter_ns
        spans = (self.fid, self.start, self.end, self.parent, self.ops, self.size, self.work)
        fids, starts, ends, parents, ops, sizes, works = spans
        stack = self._open

        def wrapper(*args, **kwargs):
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            first = args[0] if args else None
            sizes.append(len(first) if isinstance(first, (str, bytes)) else 0)
            works.append(0)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if work is not None:
                works[i] = work(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def self_times(self):
        """Per span: its duration minus the durations of its child spans."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def write(self, path):
        """Spans as tab-separated lines; a span's id is its line number."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("op\tname\tparent\tstart_ns\tend_ns\tsize\twork\n")
            for i in range(len(self.fid)):
                fh.write(f"{self.ops[i]}\t{self.names[self.fid[i]]}\t{self.parent[i]}\t"
                         f"{self.start[i]}\t{self.end[i]}\t{self.size[i]}\t{self.work[i]}\n")


class GcWatch:
    """Counts cyclic-GC collections, and the time spent in them, while
    `active` is set (the runner sets it around each timed op)."""

    def __init__(self):
        self.active = False
        self.pause_s = 0.0
        self.collections = 0
        self._since = None

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)

    def __call__(self, phase, info):
        if not self.active:
            self._since = None
        elif phase == "start":
            self._since = time.perf_counter()
        elif self._since is not None:
            self.pause_s += time.perf_counter() - self._since
            self.collections += 1
            self._since = None


def _slope(points):
    """Least-squares slope of y on x."""
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx if sxx else 0.0


def layer_metrics(tracer, n_ops, op_category, scaling):
    """Per-layer metrics from the spans of a traced loop of `n_ops` ops.

    Counts and times are per operation.  `op_category` maps an operation
    index to its input's category; `scaling` names which scaling check the
    workload supports ("walk", "search" or None).
    """
    own = tracer.self_times()
    index = {name: i for i, name in enumerate(tracer.names)}
    calls = [0] * len(tracer.names)
    self_ns = [0] * len(tracer.names)
    size = [0] * len(tracer.names)
    work = [0] * len(tracer.names)
    for i, f in enumerate(tracer.fid):
        calls[f] += 1
        self_ns[f] += own[i]
        size[f] += tracer.size[i]
        work[f] += tracer.work[i]

    def total(values, name):
        return values[index[name]] if name in index else 0

    def spans_of(name):
        f = index.get(name)
        return [i for i, g in enumerate(tracer.fid) if g == f]

    m = {}
    for name in CALLS_AND_SELF:
        m[f"{name}.calls_per_op"] = total(calls, name) / n_ops
    for name in CALLS_AND_SELF + SELF_ONLY:
        m[f"{name}.self_s"] = total(self_ns, name) / 1e9 / n_ops
    m[f"{DETECT}.calls_per_op"] = total(calls, DETECT) / n_ops

    detects = spans_of(DETECT)
    steps = total(work, DETECT)
    whole = sum(tracer.end[i] - tracer.start[i] for i in detects)
    m[f"{DETECT}.ns_per_step"] = whole / steps if steps else 0.0
    ratio = 0.0
    if scaling == "walk":
        by_size = {}
        for i in detects:
            if tracer.work[i]:
                per_step = (tracer.end[i] - tracer.start[i]) / tracer.work[i]
                by_size.setdefault(round(math.log2(tracer.work[i])), []).append(per_step)
        if len(by_size) > 1:
            ratio = statistics.median(by_size[max(by_size)]) / statistics.median(by_size[min(by_size)])
    m[f"{DETECT}.scaling_ratio"] = ratio

    parsed = total(size, PARSE)
    m[f"{PARSE}.ns_per_letter"] = total(self_ns, PARSE) / parsed if parsed else 0.0
    cli_self = sum(self_ns[i] for i, name in enumerate(tracer.names) if name.startswith("cli."))
    m["cli.main.self_s"] = cli_self / 1e9 / n_ops

    searches = total(calls, SEARCH)
    m[f"{SEARCH}.factorizations_per_call"] = total(work, SEARCH) / searches if searches else 0.0
    exponent = 0.0
    if scaling == "search":
        points = [(math.log(tracer.size[i]), math.log(tracer.end[i] - tracer.start[i]))
                  for i in spans_of(SEARCH)
                  if op_category(tracer.ops[i]) in ("square", "rectangle")]
        exponent = _slope(points) if len(points) > 1 else 0.0
    m[f"{SEARCH}.scaling_exponent"] = exponent
    return m


def expected_functions():
    """Every function the per-layer report reads."""
    return CALLS_AND_SELF + SELF_ONLY + (DETECT, PARSE, "cli.main")
