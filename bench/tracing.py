"""In-memory span tracer for the public functions of the gausep modules.

:meth:`Tracer.install` replaces every public function of each traced module
with a wrapper that records one span per call: name, start, end, the span
that was open when it was called (its parent) and the benchmark item it
belongs to.  A function is patched in its defining module and wherever
``from .x import f`` re-bound it (``gausep.cli.evolve``,
``gausep.separability.first_order_terms``, the package namespace), so calls
through every name are seen.  Spans stay in flat arrays until the run ends.

A span's self time is its duration minus the durations of its direct child
spans; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from array import array
from collections import defaultdict

MODULES = (
    "symplectic",
    "generators",
    "dynamics",
    "separability",
    "locc",
    "fock",
    "gravity",
    "cli",
)


class Tracer:
    """Records spans for wrapped functions; ``probes`` map a span name to a
    function of the call's return value whose results are averaged."""

    def __init__(self, probes: dict | None = None):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_item = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.item = -1
        self.probes = probes or {}
        self.probe_values: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------------

    def install(self, package) -> None:
        modules = {
            name: importlib.import_module(f"{package.__name__}.{name}")
            for name in MODULES
        }
        namespaces = [package, *modules.values()]
        for mod_name, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                wrapper = self._wrap(f"{mod_name}.{attr}", fn)
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is fn:
                            self._patched.append((ns, bound, fn))
                            setattr(ns, bound, wrapper)

    def uninstall(self) -> None:
        for ns, bound, fn in reversed(self._patched):
            setattr(ns, bound, fn)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        probe = self.probes.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_item.append(self.item)
            self.span_start.append(clock())
            self.span_end.append(0.0)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[span] = clock()
                stack.pop()
            if probe is not None:
                self.probe_values[name].append(float(probe(result)))
            return result

        return traced

    # -- reporting -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.span_start)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        n = len(self.span_start)
        child_time = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child_time[parent] += self.span_end[i] - self.span_start[i]
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            entry = stats[self.names[self.span_name[i]]]
            duration = self.span_end[i] - self.span_start[i]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[i]
        return stats

    def write(self, path) -> None:
        """Write every span as a tab-separated row, gzip-compressed."""
        with gzip.open(path, "wt") as out:
            out.write("span\tname\tparent\titem\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                out.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_parent[i]}"
                    f"\t{self.span_item[i]}\t{self.span_start[i]:.9f}"
                    f"\t{self.span_end[i]:.9f}\n"
                )
