"""In-memory span tracer that wraps the program's public entry points.

The tracer patches each traced function where its callers look it up:
the defining module, every ``repro`` module that bound the same object
through a ``from`` import, and, for methods, every class in the hierarchy
that defines the method.  Spans are kept in memory (name, layer, start,
end, span id, parent id, request id, thread) and written out at exit as
Chrome trace-event JSON, plus a per-layer self-time table.

Nothing inside the program is changed: work done inside worker processes
or remote hosts is invisible to these wrappers, so the benchmark reads
worker-side time from the program's own ``trial_seconds`` and
``plan_seconds`` counters instead.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time

#: (dotted target, layer) pairs.  A target is ``module:function`` or
#: ``module:Class.method``.
TARGETS = (
    ("repro.core.transpile:transpile", "core.transpile"),
    ("repro.core.transpile:transpile_many", "core.transpile"),
    ("repro.core.pipeline:run_plan", "core.pipeline"),
    ("repro.transpiler.passes.sabre_layout:SabreLayout.run", "transpiler.passes"),
    ("repro.transpiler.kernel.route:route_kernel", "transpiler.kernel"),
    ("repro.polytopes.coverage:CoverageSet.cost_of_many", "polytopes"),
    ("repro.polytopes.coverage:get_coverage_set", "polytopes.registry"),
    ("repro.polytopes.registry:CoverageRegistry.get", "polytopes.registry"),
    ("repro.weyl.coordinates:weyl_coordinates_many", "weyl"),
    ("repro.weyl.mirror:mirror_coordinates_many", "weyl"),
    ("repro.transpiler.executors:DispatchSession.submit", "transpiler.executors"),
    ("repro.service.service:MirageService.submit", "service"),
)

_current = contextvars.ContextVar("perfbench_span", default=None)


class Tracer:
    """Records spans around the patched entry points while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._pid = os.getpid()

    # -- span recording ------------------------------------------------------

    def _open(self, name: str, layer: str) -> tuple[int, int | None, int, object]:
        span_id = next(self._ids)
        parent = _current.get()
        if parent is None:
            parent_id, request_id = None, span_id
        else:
            parent_id, request_id = parent
        token = _current.set((span_id, request_id))
        return span_id, parent_id, request_id, token

    def _close(self, name, layer, span_id, parent_id, request_id, token, start):
        end = time.perf_counter_ns()
        _current.reset(token)
        self.spans.append(
            (name, layer, start, end, span_id, parent_id, request_id,
             threading.get_ident())
        )

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span_id, parent_id, request_id, token = tracer._open(name, layer)
                start = time.perf_counter_ns()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer._close(name, layer, span_id, parent_id, request_id,
                                  token, start)

            async_wrapper.__perfbench_original__ = fn
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, parent_id, request_id, token = tracer._open(name, layer)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(name, layer, span_id, parent_id, request_id,
                              token, start)

        wrapper.__perfbench_original__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Patch every target where its callers look it up."""
        if self._patches:
            return
        for target, layer in TARGETS:
            module_name, _, attr_path = target.partition(":")
            module = sys.modules.get(module_name) or __import__(
                module_name, fromlist=["_"]
            )
            if "." in attr_path:
                self._patch_method(module, attr_path, layer)
            else:
                self._patch_function(module, attr_path, layer)

    def _patch_function(self, module, name: str, layer: str) -> None:
        original = getattr(module, name)
        wrapper = self._wrap(original, name, layer)
        # Every module that bound the same object by a ``from`` import
        # looks the name up in its own globals; patch it there too.  The
        # defining module is patched as well, so the wrapper pickles by
        # reference (functools.wraps keeps the original's qualified name).
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not (
                loaded_name == "repro" or loaded_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attr, wrapper)
                    self._patches.append((loaded, attr, original))

    def _patch_method(self, module, path: str, layer: str) -> None:
        class_name, method_name = path.split(".")
        base = getattr(module, class_name)
        pending = [base]
        seen = set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            original = cls.__dict__.get(method_name)
            if original is None or not callable(original):
                continue
            label = f"{class_name}.{method_name}"
            setattr(cls, method_name, self._wrap(original, label, layer))
            self._patches.append((cls, method_name, original))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation ---------------------------------------------------------

    def group_seconds(self, names: set[str]) -> tuple[float, int]:
        """Inclusive seconds and call count of the outermost spans in a group.

        A span nested (at any depth) inside another span of the same
        group is skipped, so recursive or layered calls are not counted
        twice.
        """
        by_id = {span[4]: span for span in self.spans}
        total_ns = 0
        calls = 0
        for span in self.spans:
            if span[0] not in names:
                continue
            calls += 1
            parent = by_id.get(span[5])
            nested = False
            while parent is not None:
                if parent[0] in names:
                    nested = True
                    break
                parent = by_id.get(parent[5])
            if not nested:
                total_ns += span[3] - span[2]
        return total_ns / 1e9, calls

    def self_time_table(self) -> dict[str, dict[str, float]]:
        """Per-layer self time: span duration minus time covered by children.

        Children that run on other threads (service windows, remote
        streams) may outlive their parent; only the part of a child's
        interval inside its parent's interval is subtracted.
        """
        children: dict[int, list[tuple]] = {}
        for span in self.spans:
            if span[5] is not None:
                children.setdefault(span[5], []).append(span)
        table: dict[str, dict[str, float]] = {}
        for span in self.spans:
            name, layer, start, end = span[:4]
            intervals = sorted(
                (max(child[2], start), min(child[3], end))
                for child in children.get(span[4], ())
                if child[3] > start and child[2] < end
            )
            covered = 0
            cursor = start
            for lo, hi in intervals:
                lo = max(lo, cursor)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            row = table.setdefault(
                layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["total_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - covered) / 1e9
        return table

    def write(self, path_prefix: str) -> None:
        """Write Chrome trace-event JSON and the per-layer self-time table."""
        os.makedirs(os.path.dirname(path_prefix) or ".", exist_ok=True)
        origin = min((span[2] for span in self.spans), default=0)
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": (start - origin) / 1000.0,
                "dur": (end - start) / 1000.0,
                "pid": self._pid,
                "tid": thread,
                "args": {"id": span_id, "parent": parent_id,
                         "request": request_id},
            }
            for (name, layer, start, end, span_id, parent_id, request_id,
                 thread) in self.spans
        ]
        with open(path_prefix + ".trace.json", "w") as handle:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms"},
                handle,
            )
        with open(path_prefix + ".layers.json", "w") as handle:
            json.dump(self.self_time_table(), handle, indent=2, sort_keys=True)
