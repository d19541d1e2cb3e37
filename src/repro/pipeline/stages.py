"""The staged mapping pipeline: build-QIDG → place → simulate → package-result.

:class:`MappingPipeline` is the engine behind every mapper in the package:
:class:`~repro.mapper.qspr.QsprMapper` (and therefore the QUALE/QPOS presets)
delegates to :meth:`MappingPipeline.standard`.  Each stage is a named
function over the shared :class:`~repro.pipeline.context.PipelineContext`;
observers receive start/finish callbacks per stage and the per-stage
wall-clock timings are recorded in ``ctx.stage_seconds`` and on the final
:class:`~repro.mapper.result.MappingResult`.

The place stage resolves the placer *by name* through the
:data:`~repro.pipeline.placers.PLACERS` registry, so a decorator-registered
third-party strategy participates without any core change.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Callable, Sequence

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


@dataclass(frozen=True)
class Stage:
    """One named step of a pipeline.

    Attributes:
        name: Stage name, used in timings, observer callbacks and errors.
        run: The stage body; mutates the shared context in place.
    """

    name: str
    run: Callable[[PipelineContext], None]


# ----------------------------------------------------------------------
# Standard stages
# ----------------------------------------------------------------------
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
    if ctx.placement is None:
        raise MappingError(
            f"placer {ctx.options.placer!r} produced neither a placement nor an outcome"
        )
    ctx.outcome = ctx.simulate(ctx.placement)
    ctx.stage_seconds["simulate.routing"] = ctx.outcome.routing_seconds


def _package_result_stage(ctx: PipelineContext) -> None:
    """Package the winning outcome into a :class:`MappingResult`."""
    outcome = ctx.outcome
    assert outcome is not None and ctx.ideal_latency is not None
    ctx.result = MappingResult(
        circuit_name=ctx.circuit.name,
        fabric_name=ctx.fabric.name,
        mapper_name=ctx.mapper_name,
        latency=outcome.latency,
        ideal_latency=ctx.ideal_latency,
        schedule=outcome.schedule,
        initial_placement=outcome.initial_placement,
        final_placement=outcome.final_placement,
        trace=outcome.trace,
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


#: The standard stage sequence, in execution order.
STANDARD_STAGES: tuple[Stage, ...] = (
    Stage("build-qidg", _build_qidg_stage),
    Stage("place", _place_stage),
    Stage("simulate", _simulate_stage),
    Stage("package-result", _package_result_stage),
)


class MappingPipeline:
    """A composable sequence of mapping stages.

    Example::

        from repro.pipeline import MappingPipeline

        pipeline = MappingPipeline.standard()
        result = pipeline.run(circuit, fabric, options=MapperOptions(placer="center"))

    Custom pipelines insert extra stages (say, a QIDG rewrite between
    build-qidg and place) by constructing the class with their own stage
    tuple; :meth:`with_stage` inserts into a copy.
    """

    def __init__(
        self,
        stages: Sequence[Stage] = STANDARD_STAGES,
        observers: Sequence[PipelineObserver] = (),
    ) -> None:
        self.stages = tuple(stages)
        self.observers = tuple(observers)

    @classmethod
    def standard(cls, observers: Sequence[PipelineObserver] = ()) -> "MappingPipeline":
        """The canonical build-QIDG → place → simulate → package pipeline."""
        return cls(STANDARD_STAGES, observers)

    def with_observer(self, observer: PipelineObserver) -> "MappingPipeline":
        """A copy of this pipeline with one more observer attached."""
        return MappingPipeline(self.stages, (*self.observers, observer))

    def with_stage(self, stage: Stage, *, after: str | None = None) -> "MappingPipeline":
        """A copy with ``stage`` inserted after the named stage (or appended).

        Raises:
            MappingError: If ``after`` names no existing stage.
        """
        if after is None:
            return MappingPipeline((*self.stages, stage), self.observers)
        names = [existing.name for existing in self.stages]
        if after not in names:
            raise MappingError(
                f"unknown stage {after!r}; pipeline stages: {', '.join(names)}"
            )
        index = names.index(after) + 1
        return MappingPipeline(
            (*self.stages[:index], stage, *self.stages[index:]), self.observers
        )

    def stage_names(self) -> tuple[str, ...]:
        """The stage names, in execution order."""
        return tuple(stage.name for stage in self.stages)

    def run(
        self,
        circuit: QuantumCircuit,
        fabric: Fabric,
        *,
        options: MapperOptions | None = None,
        mapper_name: str = "QSPR",
    ) -> MappingResult:
        """Map ``circuit`` onto ``fabric`` through every stage.

        Args:
            circuit: The circuit to map (must contain instructions).
            fabric: The target fabric.
            options: Mapping options; defaults to ``MapperOptions()``.
            mapper_name: Name stamped on the result.

        Returns:
            The packaged :class:`~repro.mapper.result.MappingResult`, with
            ``cpu_seconds`` covering the whole run and ``stage_seconds``
            holding the per-stage wall-clock breakdown.  Besides the coarse
            stages, ``stage_seconds`` carries dotted sub-keys (e.g.
            ``simulate.routing``) attributing a stage's wall-clock to the
            routing core.

        Raises:
            MappingError: On an empty circuit, an unknown placer name, or a
                pipeline that fails to produce a result.
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
        for stage in self.stages:
            for observer in self.observers:
                observer.stage_started(stage.name, ctx)
            stage_started = _time.perf_counter()
            stage.run(ctx)
            elapsed = _time.perf_counter() - stage_started
            ctx.stage_seconds[stage.name] = elapsed
            for observer in self.observers:
                observer.stage_finished(stage.name, ctx, elapsed)
        if ctx.result is None:
            raise MappingError(
                "the pipeline finished without packaging a result; "
                "custom stage lists must end with a package-result stage"
            )
        ctx.result.cpu_seconds = _time.perf_counter() - started
        return ctx.result
