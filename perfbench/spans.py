"""Span recorder for the traced run.

While a traced op runs, every call site in :data:`BOUNDARIES` is replaced by
a wrapper that records one span (name, start, end, parent, op id). Spans are
kept in memory and written out when the run ends. The wrappers live only in
the benchmark; the program itself is unchanged and, in an untraced op, runs
with no wrapper at all.

A call site is a module attribute the program calls through, such as
``wsnroute.cli.build_knn_graph``. Patching the attribute on the calling
module catches the call whatever module defines the function, so a later
change may swap an implementation behind the same name and still be traced.
A call site that no longer exists is reported by name (see
:meth:`Recorder.missing`); its layer must never read as a silent zero.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter

# Span name -> call sites wrapped under that name. The span name's prefix is
# the layer (one of the eight wsnroute modules). ``energy`` has no span: its
# functions run once per hop and cost less than a wrapper would.
BOUNDARIES: dict[str, tuple[str, ...]] = {
    "cli.main": ("wsnroute.cli.main",),
    "field.generate": ("wsnroute.cli.generate_uniform", "wsnroute.bench.generate_uniform"),
    "field.write": ("wsnroute.cli.write_dataset",),
    "field.parse": ("wsnroute.cli.parse_dataset",),
    "knn.build": ("wsnroute.cli.build_knn_graph", "wsnroute.bench.build_knn_graph"),
    "knn.dump": ("wsnroute.cli.dump_graph",),
    "routes.nn": ("wsnroute.cli.nn_route", "wsnroute.bench.nn_route", "wsnroute.lifetime.nn_route"),
    "routes.length": ("wsnroute.cli.route_length", "wsnroute.bench.route_length", "wsnroute.anneal.route_length"),
    "routes.dump": ("wsnroute.cli.dump_route",),
    "anneal.sa": ("wsnroute.cli.sa_route", "wsnroute.bench.sa_route"),
    "lifetime.simulate": ("wsnroute.cli.simulate_lifetime",),
    "lifetime.check_delay": ("wsnroute.lifetime.check_delay",),
    "bench.run": ("wsnroute.cli.run_experiment",),
    "bench.export": ("wsnroute.cli.export_report",),
}


def _split(site: str) -> tuple[str, str]:
    module, _, attr = site.rpartition(".")
    return module, attr


class Recorder:
    """Collects spans from the call sites in :data:`BOUNDARIES`."""

    def __init__(self):
        # [name, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1

    @staticmethod
    def missing() -> list[str]:
        """Call sites in BOUNDARIES that the program no longer has."""
        gone = []
        for sites in BOUNDARIES.values():
            for site in sites:
                module, attr = _split(site)
                try:
                    mod = importlib.import_module(module)
                except ImportError:
                    gone.append(site)
                    continue
                if not callable(getattr(mod, attr, None)):
                    gone.append(site)
        return gone

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return wrapper

    @contextmanager
    def recording(self, op: int):
        """Wrap every call site for the duration of one op, then restore them."""
        patched = []
        self._op = op
        try:
            for name, sites in BOUNDARIES.items():
                for site in sites:
                    module, attr = _split(site)
                    mod = importlib.import_module(module)
                    original = getattr(mod, attr)
                    setattr(mod, attr, self._wrap(name, original))
                    patched.append((mod, attr, original))
            yield
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)
            self._stack.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds.

        Self time is a span's duration minus the durations of its wrapped
        children. The program is single-threaded, so children of one span
        run one after another and never overlap.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in BOUNDARIES}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[i]
        return out
