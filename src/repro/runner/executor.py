"""Batch execution of experiment grids.

:func:`run_sweep` takes a :class:`~repro.runner.spec.Sweep` (or an explicit
list of cells), consults the optional :class:`~repro.runner.cache.ResultCache`
and executes the remaining cells either sequentially or on a
``concurrent.futures`` process pool.  Results always come back in grid order,
and — because every mapper is deterministic for a fixed spec — parallel and
sequential executions produce identical latency tables.

If the platform cannot start worker processes (restricted sandboxes, missing
semaphores), the executor transparently falls back to the deterministic
sequential path instead of failing the sweep.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.runner.cache import ResultCache
from repro.runner.results import CellResult
from repro.runner.spec import ExperimentSpec, Sweep

#: Optional per-cell progress callback: ``callback(index, total, result)``.
ProgressCallback = Callable[[int, int, CellResult], None]


def map_spec(spec: ExperimentSpec, *, circuit=None, fabric=None, observer=None):
    """Run one declarative spec end to end and return the full mapping result.

    This is the one way a job runs: :func:`repro.map_circuit`, ``qspr-map
    run``, the sweep runner and the service workers all call it.  It builds
    the circuit, fabric and mapper from the spec (each resolved through the
    :mod:`repro.pipeline` registries) and returns the live
    :class:`~repro.mapper.result.MappingResult` — including
    ``stage_seconds`` and routing counters that the flat
    :class:`~repro.runner.results.CellResult` summary does not carry.

    Args:
        spec: The experiment cell to execute.
        circuit: Optional live circuit to map instead of ``spec.circuit``.
        fabric: Optional pre-built :class:`~repro.fabric.fabric.Fabric` to map
            onto instead of ``spec.fabric``.  Fabrics are immutable and
            memoise their routing graphs and route tables, so a long-lived
            worker can pass the same fabric to every job that targets the
            same geometry, pay the graph-compilation cost once and reuse
            earlier jobs' route plans.
        observer: Optional :class:`~repro.pipeline.context.PipelineObserver`
            receiving stage start/finish callbacks, passed to the mapper's
            ``map``.  The ideal baseline runs no stages and ignores it.
    """
    if circuit is None:
        circuit = spec.build_circuit()
    if fabric is None:
        fabric = spec.build_fabric()
    return spec.build_mapper().map(circuit, fabric, observer=observer)


def execute_cell(spec: ExperimentSpec) -> CellResult:
    """Execute one experiment cell and summarise it.

    This is the unit of work of the process pool; thanks to :func:`map_spec`
    it only needs the picklable spec itself to cross the process boundary.

    Example::

        >>> from repro.runner import ExperimentSpec, FabricCell
        >>> cell = execute_cell(ExperimentSpec(
        ...     "[[5,1,3]]", placer="center",
        ...     fabric=FabricCell(junction_rows=4, junction_cols=4)))
        >>> cell.latency > cell.ideal_latency > 0
        True
    """
    return CellResult.from_mapping(spec, map_spec(spec))


@dataclass
class SweepRun:
    """Outcome of one :func:`run_sweep` invocation.

    Attributes:
        specs: The grid cells, in execution (grid) order.
        results: One :class:`~repro.runner.results.CellResult` per cell, in
            the same order.
        executed: Cells actually mapped in this run.
        cached: Cells served from the result cache.
        wall_seconds: Wall-clock duration of the whole sweep.
        interrupted: Whether the sweep was cut short by Ctrl-C
            (:class:`KeyboardInterrupt`).  The completed cells are still in
            :attr:`results`, so partial reports can be written.

    Example::

        >>> run = SweepRun(specs=(), results=[])
        >>> run.total
        0
    """

    specs: tuple[ExperimentSpec, ...]
    results: list[CellResult]
    executed: int = 0
    cached: int = 0
    wall_seconds: float = 0.0
    interrupted: bool = False

    @property
    def total(self) -> int:
        """Number of grid cells in the sweep."""
        return len(self.specs)

    @property
    def missing(self) -> int:
        """Cells that never produced a result (non-zero only when interrupted)."""
        return self.total - len(self.results)

    def summary(self) -> str:
        """One-line account of the run (printed by ``qspr-map sweep``).

        Example::

            >>> SweepRun(specs=(), results=[], executed=0, cached=0).summary()
            'mapped 0 cells: 0 executed, 0 from cache (0.0 s)'
        """
        line = (
            f"mapped {self.total} cells: {self.executed} executed, "
            f"{self.cached} from cache ({self.wall_seconds:.1f} s)"
        )
        if self.interrupted:
            line += f" — interrupted, {self.missing} cells not mapped"
        return line


def run_sweep(
    experiment: Sweep | Sequence[ExperimentSpec],
    *,
    cache: ResultCache | None = None,
    workers: int = 1,
    progress: ProgressCallback | None = None,
) -> SweepRun:
    """Execute every cell of ``experiment``, reusing cached results.

    Args:
        experiment: A :class:`~repro.runner.spec.Sweep` or an explicit
            sequence of :class:`~repro.runner.spec.ExperimentSpec` cells.
        cache: Optional result cache; hits skip execution, misses are stored.
        workers: Worker processes for the uncached cells; ``1`` runs the
            deterministic sequential path, ``0`` uses one worker per CPU.
        progress: Optional callback invoked as each cell completes (cache
            hits first, then executed cells — not necessarily in grid order
            when ``workers`` > 1).

    Returns:
        A :class:`SweepRun` with results in grid order.  A Ctrl-C during
        execution does not lose the sweep: the run comes back with
        ``interrupted=True`` and every cell completed so far, so callers can
        still write partial reports.

    Example::

        >>> from repro.runner import ExperimentSpec, FabricCell, Sweep
        >>> tiny = FabricCell(junction_rows=4, junction_cols=4)
        >>> sweep = Sweep(circuits=("[[5,1,3]]",), placers=("center",), fabrics=(tiny,))
        >>> run = run_sweep(sweep)
        >>> run.executed, run.cached
        (1, 0)
    """
    specs = experiment.expand() if isinstance(experiment, Sweep) else tuple(experiment)
    start = time.perf_counter()
    total = len(specs)
    results: dict[int, CellResult] = {}
    pending: list[int] = []

    for index, spec in enumerate(specs):
        hit = cache.load(spec) if cache is not None else None
        if hit is not None:
            results[index] = hit
            if progress is not None:
                progress(index, total, hit)
        else:
            pending.append(index)

    interrupted = False
    try:
        for index, result in _execute_pending(specs, pending, workers):
            results[index] = result
            if cache is not None:
                cache.store(specs[index], result)
            if progress is not None:
                progress(index, total, result)
    except KeyboardInterrupt:
        # Graceful Ctrl-C: keep every completed cell so the caller can still
        # write partial reports instead of losing the whole sweep.
        interrupted = True
        warnings.warn(
            "sweep interrupted; returning partial results",
            RuntimeWarning,
            stacklevel=2,
        )

    executed = sum(1 for index in pending if index in results)
    return SweepRun(
        specs=specs,
        results=[results[index] for index in range(total) if index in results],
        executed=executed,
        cached=total - len(pending),
        wall_seconds=time.perf_counter() - start,
        interrupted=interrupted,
    )


def _execute_pending(
    specs: Sequence[ExperimentSpec], pending: Sequence[int], workers: int
) -> Iterator[tuple[int, CellResult]]:
    """Yield ``(grid index, result)`` pairs as the pending cells complete.

    Uses a process pool when ``workers`` allows it, falling back to the
    deterministic sequential path only when the pool itself cannot run
    (restricted sandboxes, broken workers) — errors raised *by a cell* are
    never swallowed; they propagate to the caller.
    """
    done: set[int] = set()
    if workers != 1 and len(pending) > 1:
        pool = None
        try:
            pool = ProcessPoolExecutor(max_workers=workers if workers > 0 else None)
            cells = [specs[index] for index in pending]
            for index, result in zip(pending, pool.map(execute_cell, cells)):
                done.add(index)
                yield index, result
            pool.shutdown()
            return
        except (OSError, PermissionError, BrokenProcessPool) as exc:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            warnings.warn(
                f"process pool unavailable ({exc}); falling back to sequential execution",
                RuntimeWarning,
                stacklevel=2,
            )
        except BaseException:
            # The consumer abandoned us (Ctrl-C closes the generator): cancel
            # every not-yet-started cell instead of silently finishing the
            # whole grid inside the pool's exit handler.
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            raise
    for index in pending:
        if index not in done:
            yield index, execute_cell(specs[index])
