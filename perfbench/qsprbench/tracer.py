"""In-memory spans and counters recorded by wrappers around layer functions.

:class:`Tracer` patches the program's public layer functions for the length
of one traced pass and restores every original afterwards.  Layer boundaries
get spans (name, start, end, parent span, job index); the hot per-call
functions get plain counters, because a span per call would cost more than
the call.  Counters that the simulator already keeps are summed from every
:class:`~repro.sim.engine.SimulationOutcome` that ``FabricSimulator.run``
returns, so they cover every placement run, not only the winning pass.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

#: Span boundaries: (module, class or ``None`` for module-level, attribute, span).
SPAN_TARGETS = (
    ("repro.runner.spec", "FabricCell", "build", "runner.fabric_build"),
    ("repro.placement.mvfb", "MvfbPlacer", "run", "placement"),
    ("repro.placement.monte_carlo", "MonteCarloPlacer", "run", "placement"),
    ("repro.placement.center", "CenterPlacer", "place", "placement"),
    ("repro.sim.engine", "FabricSimulator", "__init__", "sim.init"),
    ("repro.sim.engine", "FabricSimulator", "run", "sim.run"),
    ("repro.routing.router", "Router", "plan_instruction", "routing.plan"),
    ("repro.routing.compiled", "CompiledRoutingGraph", "shortest_route", "routing.kernel"),
    (
        "repro.routing.compiled",
        "CompiledRoutingGraph",
        "shortest_routes_batch",
        "routing.kernel",
    ),
    ("repro.routing.compiled", "CompiledRoutingGraph", "shared", "routing.compile"),
)

#: ``build_qidg`` is imported by name into several modules; each binding is
#: patched so every call site is covered.
QIDG_FUNCTION = ("repro.qidg.graph", "build_qidg", "qidg.build")

#: Hot per-call functions: (module, class, attribute, counter, timed).
COUNTER_TARGETS = (
    ("repro.routing.congestion", "CongestionTracker", "occupancy", "congestion_reads", False),
    ("repro.routing.congestion", "CongestionTracker", "reserve", "congestion_writes", False),
    ("repro.routing.congestion", "CongestionTracker", "release", "congestion_writes", False),
    ("repro.sim.trace", "ControlTrace", "add", "trace_commands", True),
)

#: Span names, in the order their ids are assigned.
SPAN_NAMES = (
    "job",
    "runner.fabric_build",
    "qidg.build",
    "placement",
    "sim.init",
    "sim.run",
    "routing.plan",
    "routing.kernel",
    "routing.compile",
)

#: Totals summed from every outcome ``FabricSimulator.run`` returns.
OUTCOME_COUNTERS = (
    "runs",
    "events",
    "issue_polls",
    "parks",
    "heap_pops",
    "cache_hits",
    "route_queries",
)


class Tracer:
    """Spans and counters of one traced pass.

    Use :meth:`install` before the pass and :meth:`uninstall` after it (or
    the tracer as a context manager); set :attr:`job` to the index of the
    job being mapped so spans can be grouped per job.
    """

    def __init__(self) -> None:
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.span_name = array("b")
        self.span_parent = array("l")
        self.span_job = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.job = -1
        self.counters = {name: 0 for name in ("congestion_reads", "congestion_writes")}
        self.trace_add = [0, 0.0]  # ControlTrace.add: calls, seconds
        self.outcomes = {name: 0 for name in OUTCOME_COUNTERS}
        self.runs_per_job: dict[int, int] = {}
        self.plan_failures = 0
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Span recording.

    def begin(self, name: str) -> int:
        """Open a span named ``name`` under the innermost open span."""
        index = len(self.span_start)
        self.span_name.append(self.name_ids[name])
        self.span_parent.append(self._stack[-1])
        self.span_job.append(self.job)
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        """Close the span ``begin`` returned."""
        self.span_end[index] = time.perf_counter()
        self._stack.pop()

    # ------------------------------------------------------------------
    # Wrapper installation.

    def install(self) -> None:
        """Patch every layer function; :meth:`uninstall` restores them."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for module_name, class_name, attr, span in SPAN_TARGETS:
            owner = getattr(sys.modules[module_name], class_name)
            on_result = {
                "sim.run": self._count_outcome,
                "routing.plan": self._count_plan,
            }.get(span)
            self._patch(owner, attr, lambda fn, s=span, r=on_result: self._spanned(fn, s, r))
        module_name, attr, span = QIDG_FUNCTION
        original = getattr(sys.modules[module_name], attr)
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, attr, None) is original:
                self._patch(module, attr, lambda fn: self._spanned(fn, span, None))
        for module_name, class_name, attr, counter, timed in COUNTER_TARGETS:
            owner = getattr(sys.modules[module_name], class_name)
            make = self._timed_add if timed else functools.partial(self._counted, counter)
            self._patch(owner, attr, make)

    def uninstall(self) -> None:
        """Restore every patched attribute and verify nothing is left wrapped."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        leftover = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in patches
            if _raw_attribute(owner, attr) is not original
        ]
        if leftover:
            raise RuntimeError(f"wrappers left installed: {', '.join(leftover)}")

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    @property
    def installed(self) -> list[tuple[object, str, object]]:
        """The (owner, attribute, original) triples currently patched."""
        return list(self._patches)

    def _patch(self, owner, attr: str, make_wrapper) -> None:
        original = _raw_attribute(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(make_wrapper(original.__func__))
        else:
            replacement = make_wrapper(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    # ------------------------------------------------------------------
    # Wrappers.

    def _spanned(self, fn, span: str, on_result):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = begin(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(index)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counted(self, counter: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed_add(self, fn):
        cell = self.trace_add
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[0] += 1
                cell[1] += clock() - started

        return wrapper

    def _count_outcome(self, outcome) -> None:
        totals = self.outcomes
        totals["runs"] += 1
        totals["events"] += outcome.event_stats.events_processed
        totals["issue_polls"] += outcome.event_stats.issue_polls
        totals["parks"] += outcome.busy_queue_entries
        totals["heap_pops"] += outcome.routing_stats.heap_pops
        totals["cache_hits"] += outcome.routing_stats.cache_hits
        totals["route_queries"] += outcome.routing_stats.route_queries
        self.runs_per_job[self.job] = self.runs_per_job.get(self.job, 0) + 1

    def _count_plan(self, plan) -> None:
        if plan is None:
            self.plan_failures += 1

    # ------------------------------------------------------------------
    # Analysis and output.

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``seconds`` and ``self_seconds``.

        Inclusive time counts only the outermost span of a name, so a layer
        that re-enters itself is not counted twice.  Self time is a span's
        duration minus the durations of its direct children.
        """
        count = len(self.span_start)
        durations = [self.span_end[i] - self.span_start[i] for i in range(count)]
        children = [0.0] * count
        parents = self.span_parent
        for i in range(count):
            parent = parents[i]
            if parent >= 0:
                children[parent] += durations[i]
        names = self.span_name
        totals = {name: {"calls": 0, "seconds": 0.0, "self_seconds": 0.0} for name in SPAN_NAMES}
        for i in range(count):
            entry = totals[SPAN_NAMES[names[i]]]
            entry["calls"] += 1
            entry["self_seconds"] += durations[i] - children[i]
            if not self._has_ancestor_named(i, names[i]):
                entry["seconds"] += durations[i]
        return totals

    def _has_ancestor_named(self, index: int, name_id: int) -> bool:
        parent = self.span_parent[index]
        while parent >= 0:
            if self.span_name[parent] == name_id:
                return True
            parent = self.span_parent[parent]
        return False

    def write(self, path: str) -> int:
        """Write the spans as gzip JSON lines; returns the number written."""
        origin = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for i in range(len(self.span_start)):
                out.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": SPAN_NAMES[self.span_name[i]],
                            "job": self.span_job[i],
                            "parent": self.span_parent[i],
                            "start_s": round(self.span_start[i] - origin, 7),
                            "end_s": round(self.span_end[i] - origin, 7),
                        },
                        separators=(",", ":"),
                    )
                )
                out.write("\n")
        return len(self.span_start)


def _raw_attribute(owner, attr: str):
    """The attribute as stored on ``owner`` (a classmethod stays a classmethod)."""
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)
