"""The mapping pipeline: build-QIDG → place → simulate → package-result.

:func:`run_pipeline` is the engine behind every mapper in the package:
:class:`~repro.mapper.qspr.QsprMapper` (and therefore the QUALE/QPOS presets)
calls it.  Each stage is a function over the shared
:class:`~repro.pipeline.context.PipelineContext`; an optional observer
receives start/finish callbacks per stage and the per-stage wall-clock
timings are recorded in ``ctx.stage_seconds`` and on the final
:class:`~repro.mapper.result.MappingResult`.

The place stage resolves the placer *by name* through the
:data:`~repro.pipeline.placers.PLACERS` registry, so a decorator-registered
third-party strategy participates without any core change.
"""

from __future__ import annotations

import time as _time

from repro.errors import MappingError
from repro.circuits.circuit import QuantumCircuit
from repro.fabric.fabric import Fabric
from repro.mapper.options import MapperOptions
from repro.mapper.result import MappingResult
from repro.pipeline.context import PipelineContext, PipelineObserver
from repro.pipeline.placers import PLACERS
from repro.placement.base import Placement
from repro.qidg.analysis import critical_path_latency
from repro.qidg.graph import build_qidg
from repro.sim.engine import SimulationOutcome


def _build_qidg_stage(ctx: PipelineContext) -> None:
    """Build the dependency graph, the ideal bound and the forward simulator."""
    ctx.qidg = build_qidg(ctx.circuit)
    ctx.ideal_latency = critical_path_latency(ctx.qidg, ctx.options.technology)
    ctx.forward_sim = ctx.make_simulator()


def _place_stage(ctx: PipelineContext) -> None:
    """Resolve the placer by name and run its strategy.

    A strategy returning a bare :class:`~repro.placement.base.Placement` is
    validated here and evaluated by the simulate stage; a strategy returning
    a :class:`~repro.sim.engine.SimulationOutcome` already simulated.
    """
    strategy = PLACERS.resolve(ctx.options.placer, error=MappingError)
    produced = strategy(ctx)
    if isinstance(produced, SimulationOutcome):
        ctx.outcome = produced
    elif isinstance(produced, Placement):
        produced.validate(ctx.circuit, ctx.fabric)
        ctx.placement = produced
    else:
        raise MappingError(
            f"placer {ctx.options.placer!r} returned {type(produced).__name__}; "
            "expected a Placement or a SimulationOutcome"
        )


def _simulate_stage(ctx: PipelineContext) -> None:
    """Evaluate the chosen placement, unless the placer already did.

    Either way the routing share of the evaluating stage's wall-clock is
    recorded as a ``<stage>.routing`` sub-key of ``stage_seconds``, so the
    benchmark harness can attribute mapping time to the routing core.
    """
    if ctx.outcome is not None:
        # A search placer simulated during the place stage; attribute the
        # winning pass's routing time there.
        ctx.stage_seconds["place.routing"] = ctx.outcome.routing_seconds
        return
    ctx.outcome = ctx.simulate(ctx.placement)
    ctx.stage_seconds["simulate.routing"] = ctx.outcome.routing_seconds


def _package_result_stage(ctx: PipelineContext) -> None:
    """Package the winning outcome into a :class:`MappingResult`."""
    outcome = ctx.outcome
    ctx.result = MappingResult(
        circuit_name=ctx.circuit.name,
        fabric_name=ctx.fabric.name,
        mapper_name=ctx.mapper_name,
        latency=outcome.latency,
        ideal_latency=ctx.ideal_latency,
        schedule=outcome.schedule,
        initial_placement=outcome.initial_placement,
        final_placement=outcome.final_placement,
        trace=outcome,  # the trace is built on first access
        records=outcome.records,
        direction=outcome.direction,
        placement_runs=outcome.placement_runs,
        total_moves=outcome.total_moves,
        total_turns=outcome.total_turns,
        total_congestion_delay=outcome.total_congestion_delay,
        options=ctx.options,
        stage_seconds=ctx.stage_seconds,
        routing_seconds=outcome.routing_seconds,
        routing_stats=outcome.routing_stats,
        event_stats=outcome.event_stats,
    )


_STAGES = (
    ("build-qidg", _build_qidg_stage),
    ("place", _place_stage),
    ("simulate", _simulate_stage),
    ("package-result", _package_result_stage),
)

#: The stage names, in execution order: the coarse keys of
#: ``stage_seconds`` and the names observers are called with.
STAGE_NAMES: tuple[str, ...] = tuple(name for name, _ in _STAGES)


def run_pipeline(
    circuit: QuantumCircuit,
    fabric: Fabric,
    options: MapperOptions | None = None,
    *,
    mapper_name: str = "QSPR",
    observer: PipelineObserver | None = None,
) -> MappingResult:
    """Map ``circuit`` onto ``fabric`` through the four stages.

    Args:
        circuit: The circuit to map (must contain instructions).
        fabric: The target fabric.
        options: Mapping options; defaults to ``MapperOptions()``.
        mapper_name: Name stamped on the result.
        observer: Optional per-stage hooks (see
            :class:`~repro.pipeline.context.PipelineObserver`).

    Returns:
        The packaged :class:`~repro.mapper.result.MappingResult`, with
        ``cpu_seconds`` covering the whole run and ``stage_seconds``
        holding the per-stage wall-clock breakdown.  Besides the coarse
        stages, ``stage_seconds`` carries dotted sub-keys (e.g.
        ``simulate.routing``) attributing a stage's wall-clock to the
        routing core.

    Raises:
        MappingError: On an empty circuit, an unknown placer name, or a
            placer that returns neither a placement nor an outcome.
    """
    if circuit.num_instructions == 0:
        raise MappingError("cannot map an empty circuit")
    started = _time.perf_counter()
    ctx = PipelineContext(
        circuit=circuit,
        fabric=fabric,
        options=options if options is not None else MapperOptions(),
        mapper_name=mapper_name,
    )
    for name, stage in _STAGES:
        if observer is not None:
            observer.stage_started(name, ctx)
        stage_started = _time.perf_counter()
        stage(ctx)
        elapsed = _time.perf_counter() - stage_started
        ctx.stage_seconds[name] = elapsed
        if observer is not None:
            observer.stage_finished(name, ctx, elapsed)
    ctx.result.cpu_seconds = _time.perf_counter() - started
    return ctx.result
