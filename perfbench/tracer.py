"""Spans around the public functions of each ``qrecover`` module.

The tracer patches the functions in ``WRAPPED`` from outside the package
and changes no package code.  A wrapped name is replaced in every
namespace that binds it: its own module, each module that imported it with
``from ... import``, and the package itself.  ``DensityMatrix`` and
``PureState`` are traced at ``__post_init__``, which every construction
runs.  A name missing from the package is listed in ``absent``, not an
error, since refactors may delete it.

Each span is (id, parent id, name, start, end).  Spans are kept in memory
until the caller takes them.  Each thread keeps its own stack of open
spans; a span opened on a thread with an empty stack (a worker of the
runner's pool) takes as parent the innermost span open on the job's thread,
which is the span that is waiting for the pool.  A span's self time is its
duration minus the union of its children's intervals; the union matters
because children on pool threads overlap.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "qrecover"
JOB = "job"
WRAPPED = {
    "cli": ("main", "build_parser", "config_from_args"),
    "runner": ("run", "write_rows"),
    "openloop": (
        "open_loop_point",
        "run_open_loop",
        "concurrence_uncontrolled",
        "concurrence_echoed",
        "concurrence_corrected",
    ),
    "dephasing": (
        "monte_carlo_moments",
        "analytic_coherence_uncontrolled",
        "analytic_coherence_echoed",
    ),
    "entanglement": (
        "concurrence",
        "concurrence_x_state",
        "concurrence_with_path",
        "eof_from_concurrence",
        "ensemble_average_eof",
    ),
    "closedloop": (
        "state_after_interaction",
        "measure_environment",
        "measurement_ensemble",
        "corrected_ensemble",
        "uncontrolled_output",
        "controlled_output",
        "assistance_scan",
    ),
    "counts": (
        "coincidence_probabilities",
        "simulate_counts",
        "estimate_p_prime",
        "estimate_theta",
    ),
    "states": (
        "DensityMatrix",
        "PureState",
        "apply_local",
        "apply_two_qubit",
        "partial_trace",
        "kron_state",
    ),
}
# Classes traced through the __post_init__ that each construction runs.
CONSTRUCTED = ("DensityMatrix", "PureState")

TRACED_NAMES = tuple(f"{layer}.{name}" for layer, names in WRAPPED.items() for name in names)


def covered_time(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def span_totals(spans) -> dict[str, tuple[int, float]]:
    """Calls and summed self time per span name."""
    children = defaultdict(list)
    for _, parent, _, start, end in spans:
        children[parent].append((start, end))
    totals: dict[str, tuple[int, float]] = {}
    for span_id, _, name, start, end in spans:
        calls, self_s = totals.get(name, (0, 0.0))
        own = (end - start) - covered_time(children.get(span_id, ()), start, end)
        totals[name] = (calls + 1, self_s + own)
    return totals


class Tracer:
    """Installs the wrappers and collects spans and per-call notes."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.draws: list[int] = []  # n_samples of each monte_carlo_moments call
        self.routes: list[str] = []  # route of each concurrence_with_path call
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._job_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        try:
            return self._job_stack[-1]
        except IndexError:
            return 0

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called ``name``."""
        stack = self._stack()
        parent = self._parent(stack)
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def job(self, fn, *args):
        """Run one job under a root span; pool threads attach below it."""
        self._job_stack = self._stack()
        return self.call(JOB, fn, *args)

    def take(self):
        """Return and clear the spans and notes collected so far."""
        taken = (self.spans, self.draws, self.routes)
        self.spans, self.draws, self.routes = [], [], []
        return taken

    def _wrap(self, name: str, fn):
        tracer = self
        if name == "dephasing.monte_carlo_moments":
            signature = inspect.signature(fn)

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                n_samples = signature.bind(*args, **kwargs).arguments.get("n_samples")
                result = tracer.call(name, fn, *args, **kwargs)
                if n_samples is not None:
                    tracer.draws.append(n_samples)
                return result

        elif name == "entanglement.concurrence_with_path":

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                result = tracer.call(name, fn, *args, **kwargs)
                tracer.routes.append(result[1])
                return result

        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return tracer.call(name, fn, *args, **kwargs)

        return traced

    def _patch(self, target, attr: str, value) -> None:
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def install(self) -> None:
        """Wrap every name in WRAPPED that the loaded package defines."""
        modules = [
            module
            for key, module in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        self.absent = []
        for layer, names in WRAPPED.items():
            home = sys.modules.get(f"{PACKAGE}.{layer}")
            for name in names:
                metric = f"{layer}.{name}"
                original = getattr(home, name, None)
                if name in CONSTRUCTED:
                    hook = None
                    if isinstance(original, type):
                        hook = vars(original).get("__post_init__")
                    if hook is None:
                        self.absent.append(metric)
                    else:
                        self._patch(original, "__post_init__", self._wrap(metric, hook))
                    continue
                if not callable(original):
                    self.absent.append(metric)
                    continue
                wrapper = self._wrap(metric, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()
