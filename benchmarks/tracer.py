"""Span tracer for the dmscramble benchmark.

Times calls into the public functions of each dmscramble module from
outside the package. The package modules import functions by name (for
example ``otoc`` holds its own reference to ``linalg.eigh``), so a wrapper
only sees every call when it is bound in every ``dmscramble.*`` namespace
that holds the function. ``Tracer`` does that rebinding on ``install`` and
restores the originals on ``uninstall``.

Spans are kept in memory and carry an id, the id of the span that caused
them, the thread they ran on, and a small per-function note (matrix size,
config, number of grid points) from which the exact counts are derived.
"""

import functools
import importlib
import inspect
import itertools
import math
import sys
import threading
import time
from collections import defaultdict
from typing import Any, NamedTuple, Optional

PACKAGE = "dmscramble"
# The package modules, one layer each; ``oracle`` is test-only and not timed.
LAYERS = ("operators", "hamiltonian", "linalg", "thermal", "otoc", "experiment", "cli")


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    thread: int
    layer: str
    name: str
    start: float
    end: float
    note: Any = None


# What each span records beside its times, taken from (first argument,
# result). Only small values: keeping a matrix argument would keep it alive.
_NOTES = {
    "linalg.eigh": lambda first, result: len(first),
    "hamiltonian.build_dm": lambda first, result: first,
    "otoc.otoc_series": lambda first, result: len(result.values),
}


class Tracer:
    """Rebinds public dmscramble functions to span-recording wrappers.

    A span opened on a thread with no open span of its own (a sweep pool
    worker) takes as parent the innermost open span of the thread that
    installed the tracer, which is the thread that submitted the work.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack = None
        self._rebound = []  # (namespace, attribute, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer, fn):
        note = _NOTES.get(f"{layer}.{fn.__name__}")
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                top = self._root_stack[-1:]  # slice: the root thread may pop meanwhile
                parent = top[0] if top else None
            span_id = next(self._ids)
            stack.append(span_id)
            info = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    info = note(args[0] if args else next(iter(kwargs.values())), result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    Span(span_id, parent, threading.get_ident(), layer, name,
                         start, end, info)
                )

        return traced

    def install(self):
        """Wrap every public function of every layer, in every namespace."""
        self._root_stack = self._stack()
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(layer, obj)
        namespaces = [m for key, m in sys.modules.items()
                      if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._rebound.append((namespace, attr, obj))
                    setattr(namespace, attr, wrappers[obj])
        return self

    def uninstall(self):
        """Put every original function back where it was found."""
        for namespace, attr, original in reversed(self._rebound):
            setattr(namespace, attr, original)
        self._rebound.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def covered(lo, hi, intervals):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    run_start = run_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals.

    Children from any thread count, so a span whose children ran in
    parallel loses only the wall time during which some child ran.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered(s.start, s.end, children[s.id])
            for s in spans}


def _ancestors(span, by_id):
    parent = by_id.get(span.parent)
    while parent is not None:
        yield parent
        parent = by_id.get(parent.parent)


# Per-layer metrics: name -> unit. Later changes cite these names.
LAYER_METRICS = {
    "hamiltonian.s": "s",
    "hamiltonian.self_s": "s",
    "hamiltonian.build_dm.calls": "count",
    "hamiltonian.build_dm.reuse_ratio": "ratio",
    "operators.two_site_term.calls": "count",
    "operators.self_s": "s",
    "thermal.gibbs_state.calls": "count",
    "thermal.check_density_matrix.calls": "count",
    "thermal.check_density_matrix.s": "s",
    "thermal.self_s": "s",
    "linalg.eigh.calls": "count",
    "linalg.eigh.s": "s",
    "linalg.eigh.ops_computed": "count",
    "linalg.psd_sqrt.calls": "count",
    "linalg.uhlmann_fidelity.s": "s",
    "linalg.self_s": "s",
    "otoc.points": "count",
    "otoc.otoc_series.s": "s",
    "otoc.otoc_series.s_per_point": "s",
    "otoc.self_s": "s",
    "experiment.run_sweep.s": "s",
    "experiment.self_s": "s",
    "experiment.concurrency": "ratio",
    "experiment.queue_wait_s": "s",
    "experiment.io_s": "s",
    "cli.self_s": "s",
}


def layer_metrics(spans):
    """Derive every ``LAYER_METRICS`` value from one traced workload run.

    ``<layer>.s`` sums the spans of a layer not nested in another span of
    the same layer; like every summed time here it adds up busy time across
    threads. ``<layer>.self_s`` sums self times. Calls and notes are exact
    counts: ``ops_computed`` is sum(d^3) over eigh calls (computed, not
    measured), ``reuse_ratio`` is distinct build_dm configs per call.
    """
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    fn_spans = defaultdict(list)
    layer_s = defaultdict(float)
    layer_self = defaultdict(float)
    for s in spans:
        fn_spans[f"{s.layer}.{s.name}"].append(s)
        layer_self[s.layer] += selfs[s.id]
        if all(a.layer != s.layer for a in _ancestors(s, by_id)):
            layer_s[s.layer] += s.end - s.start

    def calls(key):
        return len(fn_spans[key])

    def busy(key):
        return math.fsum(s.end - s.start for s in fn_spans[key])

    build_dm = fn_spans["hamiltonian.build_dm"]
    points = sum(s.note for s in fn_spans["otoc.otoc_series"] if s.note is not None)

    # Series run under a sweep: busy time, and wait from sweep start to series start.
    series_busy = queue_wait = 0.0
    for s in fn_spans["otoc.otoc_series"]:
        sweep = next((a for a in _ancestors(s, by_id) if a.name == "run_sweep"), None)
        if sweep is not None:
            series_busy += s.end - s.start
            queue_wait += s.start - sweep.start
    sweep_wall = busy("experiment.run_sweep")

    values = {
        "hamiltonian.s": layer_s["hamiltonian"],
        "hamiltonian.self_s": layer_self["hamiltonian"],
        "hamiltonian.build_dm.calls": len(build_dm),
        "hamiltonian.build_dm.reuse_ratio":
            len({s.note for s in build_dm}) / len(build_dm) if build_dm else 0.0,
        "operators.two_site_term.calls": calls("operators.two_site_term"),
        "operators.self_s": layer_self["operators"],
        "thermal.gibbs_state.calls": calls("thermal.gibbs_state"),
        "thermal.check_density_matrix.calls": calls("thermal.check_density_matrix"),
        "thermal.check_density_matrix.s": busy("thermal.check_density_matrix"),
        "thermal.self_s": layer_self["thermal"],
        "linalg.eigh.calls": calls("linalg.eigh"),
        "linalg.eigh.s": busy("linalg.eigh"),
        "linalg.eigh.ops_computed":
            sum(s.note ** 3 for s in fn_spans["linalg.eigh"] if s.note is not None),
        "linalg.psd_sqrt.calls": calls("linalg.psd_sqrt"),
        "linalg.uhlmann_fidelity.s": busy("linalg.uhlmann_fidelity"),
        "linalg.self_s": layer_self["linalg"],
        "otoc.points": points,
        "otoc.otoc_series.s": busy("otoc.otoc_series"),
        "otoc.otoc_series.s_per_point":
            busy("otoc.otoc_series") / points if points else 0.0,
        "otoc.self_s": layer_self["otoc"],
        "experiment.run_sweep.s": sweep_wall,
        "experiment.self_s": layer_self["experiment"],
        "experiment.concurrency": series_busy / sweep_wall if sweep_wall else 0.0,
        "experiment.queue_wait_s": queue_wait,
        "experiment.io_s": busy("experiment.write_csv") + busy("experiment.render_svg"),
        "cli.self_s": layer_self["cli"],
    }
    return {name: (values[name], unit) for name, unit in LAYER_METRICS.items()}
