"""Closed-loop passes over a job list in this process: one client maps one
job at a time through ``repro.runner.executor.execute_cell`` (the path of
``qspr-map run`` and ``qspr-map sweep``) with a fresh fabric per job, or, for
the service workload's traced run, through the service worker's
``execute_job`` with a memoised fabric.

Untraced jobs are timed in CPU seconds of this process scaled to a reference
host speed (``qsprbench/speed.py``): on a shared host the speed of a CPU
drifts by a third over minutes, and no raw time, wall or CPU, repeats across
sets of runs.  Each job's raw CPU and wall times are printed beside it.
"""

from __future__ import annotations

import contextlib
import gc
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from statistics import median

from qsprbench import checks
from qsprbench.speed import SpeedSampler
from qsprbench.stats import geomean
from qsprbench.tracer import Tracer

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Fresh interpreters launched for ``setup_s``; the median is reported.
SETUP_LAUNCHES = 5

#: What a user of the library waits for before the first job can start:
#: ``import repro``, the quale fabric, and its compiled routing graph.  The
#: child samples its own speed, and reports its CPU time up to ready (less
#: the kernel's) raw and scaled, which leaves out its exit.
SETUP_CODE = """\
import time
from qsprbench.speed import SpeedSampler
sampler = SpeedSampler()
with sampler:
    import repro
    from repro.routing.compiled import CompiledRoutingGraph
    from repro.routing.graph_model import RoutingGraph
    from repro.runner.spec import FabricCell
    CompiledRoutingGraph.shared(RoutingGraph.shared(FabricCell.quale().build()))
    ready = time.thread_time()
    setup = ready - sampler.spent
print(setup, sampler.scale(setup, 0.0, ready))
"""


def setup_samples(env: dict, launches: int) -> list[tuple[float, float]]:
    """Raw and scaled CPU seconds from a fresh interpreter's start to a ready
    library, per launch."""
    command = [sys.executable, "-c", SETUP_CODE]
    env = dict(env, PYTHONPATH=BENCH_DIR + os.pathsep + env.get("PYTHONPATH", ""))
    values = []
    for _ in range(launches):
        done = subprocess.run(
            command, env=env, check=True, capture_output=True, text=True, timeout=120
        )
        raw, scaled = done.stdout.split()[-2:]
        values.append((float(raw), float(scaled)))
    return values


def compile_bytecode(env: dict) -> None:
    """One untimed import, which writes the bytecode a fresh checkout lacks."""
    subprocess.run(
        [sys.executable, "-c", "import repro.cli"],
        env=env, check=True, capture_output=True, timeout=120,
    )


def peak_rss_mb() -> float:
    """Peak resident set size of this process (the one that maps)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class JobRow:
    """One mapped job of one pass."""

    index: int
    spec: object
    cpu_s: float = 0.0
    wall_s: float = 0.0
    scaled_s: float = 0.0
    latency: float | None = None
    placement_runs: int = 0
    trace_commands: int = 0
    problems: list[str] = field(default_factory=list)


def run_pass(
    specs,
    *,
    tracer: Tracer | None = None,
    sampler: SpeedSampler | None = None,
    worker_path: bool = False,
) -> list[JobRow]:
    """Map every spec once and check its output.

    By default each job goes through ``execute_cell`` with a fresh fabric.
    With ``worker_path`` it goes through ``repro.service.worker.execute_job``
    with one fabric memo for the whole pass, as a service worker maps it
    (memoised fabric, shared route store on).

    Both entry points return only the flat summary, so the full mapping
    result (schedule, trace) is captured on its way out of ``map_spec`` and
    dropped once the job is checked.  Checks run outside the timed region.
    A job's time ends with a full garbage collection after its result is
    dropped, so each job pays for its own cyclic garbage, as it would in a
    sweep, where later jobs' automatic collections free it.  With a
    ``sampler``, each job's CPU time is also scaled to the reference speed,
    less the kernel runs inside it.
    """
    if worker_path:
        from repro.service import worker as entry

        fabrics: dict = {}

        def map_job(spec):
            return entry.execute_job(spec, fabrics)[0]

    else:
        from repro.runner import executor as entry

        map_job = entry.execute_cell

    original_map_spec = entry.map_spec
    captured = []

    def capturing_map_spec(*args, **kwargs):
        result = original_map_spec(*args, **kwargs)
        captured.append(result)
        return result

    rows = []
    circuits: dict[str, object] = {}
    clock = _JobClock(sampler)
    entry.map_spec = capturing_map_spec
    # The harness's own garbage is not the program's.
    gc.collect()
    try:
        with sampler or contextlib.nullcontext():
            for index, spec in enumerate(specs):
                span = None
                if tracer is not None:
                    tracer.job = index
                    span = tracer.begin("job")
                clock.start()
                try:
                    cell = map_job(spec)
                except Exception as exc:  # a failing job is counted, not fatal
                    cell = None
                    row = JobRow(index, spec, problems=[f"{type(exc).__name__}: {exc}"])
                finally:
                    clock.pause()
                    if span is not None:
                        tracer.end(span)
                if cell is not None:
                    row = _checked_row(index, spec, cell, captured[0], circuits)
                captured.clear()
                clock.resume()
                gc.collect()
                clock.pause()
                row.cpu_s, row.wall_s, row.scaled_s = clock.cpu, clock.wall, clock.scaled()
                rows.append(row)
    finally:
        entry.map_spec = original_map_spec
        captured.clear()
    return rows


class _JobClock:
    """One job's CPU and wall time over its timed segments, less the
    sampler's kernel runs inside them."""

    def __init__(self, sampler: SpeedSampler | None) -> None:
        self.sampler = sampler

    def start(self) -> None:
        self.cpu = self.wall = 0.0
        self.first = time.thread_time()
        self.resume()

    def resume(self) -> None:
        self._kernel = self.sampler.spent if self.sampler else 0.0
        self._cpu, self._wall = time.thread_time(), time.perf_counter()

    def pause(self) -> None:
        kernel = self.sampler.spent - self._kernel if self.sampler else 0.0
        self.cpu += time.thread_time() - self._cpu - kernel
        self.wall += time.perf_counter() - self._wall - kernel
        self.last = time.thread_time()

    def scaled(self) -> float:
        """The job's CPU time at the reference speed (the raw CPU time
        without a sampler)."""
        if self.sampler is None:
            return self.cpu
        return self.sampler.scale(self.cpu, self.first, self.last)


def _checked_row(index: int, spec, cell, result, circuits: dict) -> JobRow:
    if spec.circuit not in circuits:
        circuits[spec.circuit] = spec.build_circuit()
    circuit = circuits[spec.circuit]
    problems = checks.latency_problems(spec, circuit, cell.latency, cell.ideal_latency)
    problems += checks.schedule_problems(circuit, result.schedule)
    if cell.latency != result.latency:
        problems.append(f"summary latency {cell.latency} != result {result.latency}")
    return JobRow(
        index,
        spec,
        latency=cell.latency,
        placement_runs=cell.placement_runs,
        trace_commands=len(result.trace),
        problems=problems,
    )


@dataclass
class LibraryRun:
    """What a library workload measured, ready for reporting."""

    metrics: dict[str, tuple[float, str]]
    passes: list[list[JobRow]]
    problems: list[str]
    notes: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(len(rows) for rows in self.passes)

    @property
    def failed(self) -> int:
        return sum(1 for rows in self.passes for row in rows if row.problems)


def _batch_cpu(rows: list[JobRow]) -> float:
    return sum(row.cpu_s for row in rows)


def run_untraced(specs, *, env: dict) -> LibraryRun:
    """Set-up launches, then one pass over the job list, every time scaled.

    ``setup_s`` is the median launch: scaling leaves an error of either
    sign, so the fastest launch would pick the largest error.
    """
    compile_bytecode(env)
    setup = setup_samples(env, SETUP_LAUNCHES)
    sampler = SpeedSampler()
    rows = run_pass(specs, sampler=sampler)
    metrics = {
        "setup_s": (median(scaled for _, scaled in setup), "s"),
        "batch_cpu_s": (sum(row.scaled_s for row in rows), "s"),
        "job_time_s": (geomean([row.scaled_s for row in rows]), "s"),
        "mapped_latency_us_geomean": (_latency_geomean(rows), "us"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    took = sorted(sampler.took)
    notes = [
        "setup CPU seconds per launch (raw / scaled): "
        + ", ".join(f"{raw:.3f} / {scaled:.3f}" for raw, scaled in setup),
        f"pass CPU seconds: {_batch_cpu(rows):.3f} raw, "
        f"{sum(row.scaled_s for row in rows):.3f} scaled; "
        f"wall seconds: {sum(row.wall_s for row in rows):.3f}",
        f"kernel runs: {len(took)}, CPU ms min {took[0] * 1e3:.3f} "
        f"median {took[len(took) // 2] * 1e3:.3f} max {took[-1] * 1e3:.3f}",
    ]
    return LibraryRun(metrics, [rows], [], notes)


def _latency_geomean(rows: list[JobRow]) -> float:
    latencies = [row.latency for row in rows if row.latency is not None]
    return geomean(latencies) if latencies else float("nan")


def run_traced(specs, *, trace_path: str | None, worker_path: bool = False) -> LibraryRun:
    """An untraced pass, then a traced one; per-layer metrics of the traced one.

    The tracing overhead is the traced pass's CPU time over the untraced
    one's, both raw: the speed kernel would add its own runs to the spans.
    Both passes must give identical latencies.  Each pass starts from its
    own fabric memo, so neither inherits a warm route store.
    """
    untraced = run_pass(specs, worker_path=worker_path)
    tracer = Tracer()
    with tracer:
        traced = run_pass(specs, tracer=tracer, worker_path=worker_path)
    passes = [untraced, traced]
    problems = []
    if [row.latency for row in traced] != [row.latency for row in untraced]:
        problems.append("traced and untraced latencies differ")
    for row in traced:
        runs = tracer.runs_per_job.get(row.index, 0)
        if row.latency is not None and runs != row.placement_runs:
            problems.append(
                f"job {row.index}: {runs} simulator runs traced, "
                f"{row.placement_runs} placement runs reported"
            )
    metrics = layer_metrics(tracer, traced)
    metrics["trace.overhead_ratio"] = (_batch_cpu(traced) / _batch_cpu(untraced), "ratio")
    notes = []
    if trace_path is not None:
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        written = tracer.write(trace_path)
        notes.append(f"{written} spans written to {trace_path}")
    return LibraryRun(metrics, passes, problems, notes)


def layer_metrics(tracer: Tracer, rows: list[JobRow]) -> dict[str, tuple[float, str]]:
    """The per-layer table of a traced pass (see ``perfbench/README.md``)."""
    spans = tracer.layer_totals()
    outcomes = tracer.outcomes
    plan_calls = spans["routing.plan"]["calls"]
    trace_calls, trace_seconds = tracer.trace_add
    kept = sum(row.trace_commands for row in rows)
    queries = outcomes["route_queries"]
    return {
        "runner.fabric_build_s": (spans["runner.fabric_build"]["seconds"], "s"),
        "qidg.build_s": (spans["qidg.build"]["seconds"], "s"),
        "placement.runs": (outcomes["runs"], "count"),
        "placement.self_s": (spans["placement"]["self_seconds"], "s"),
        "sim.init_calls": (spans["sim.init"]["calls"], "count"),
        "sim.init_s": (spans["sim.init"]["seconds"], "s"),
        "sim.run_s": (spans["sim.run"]["seconds"], "s"),
        "sim.run_self_s": (spans["sim.run"]["self_seconds"], "s"),
        "sim.events": (outcomes["events"], "count"),
        "sim.issue_polls": (outcomes["issue_polls"], "count"),
        "sim.trace_commands": (trace_calls, "count"),
        "sim.trace_s": (trace_seconds, "s"),
        "sim.trace_kept_frac": (kept / trace_calls if trace_calls else 0.0, "ratio"),
        "scheduling.parks": (outcomes["parks"], "count"),
        "routing.compile_s": (spans["routing.compile"]["seconds"], "s"),
        "routing.plan_calls": (plan_calls, "count"),
        "routing.plan_s": (spans["routing.plan"]["seconds"], "s"),
        "routing.plan_self_s": (spans["routing.plan"]["self_seconds"], "s"),
        "routing.plan_fail_frac": (
            tracer.plan_failures / plan_calls if plan_calls else 0.0,
            "ratio",
        ),
        "routing.kernel_searches": (spans["routing.kernel"]["calls"], "count"),
        "routing.kernel_s": (spans["routing.kernel"]["seconds"], "s"),
        "routing.heap_pops": (outcomes["heap_pops"], "count"),
        "routing.cache_hit_rate": (
            outcomes["cache_hits"] / queries if queries else 0.0,
            "ratio",
        ),
        "routing.congestion_reads": (tracer.counters["congestion_reads"], "count"),
        "routing.congestion_writes": (tracer.counters["congestion_writes"], "count"),
    }
