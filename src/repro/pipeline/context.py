"""Shared state of one pipeline run: context, observers and stage output.

A :class:`PipelineContext` is created by
:func:`~repro.pipeline.stages.run_pipeline` and threaded through every
stage.  Stages read the inputs (circuit, fabric, options) and fill in the
intermediate products (QIDG, simulator, placement, outcome) until the final
stage packages a :class:`~repro.mapper.result.MappingResult`.

Placer strategies hand the pipeline either a bare
:class:`~repro.placement.base.Placement`, which the simulate stage evaluates,
or the :class:`~repro.sim.engine.SimulationOutcome` a search placer (MVFB,
Monte-Carlo) already chose, with its ``placement_runs`` set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.circuits.circuit import QuantumCircuit
from repro.fabric.fabric import Fabric
from repro.mapper.options import MapperOptions
from repro.placement.base import Placement
from repro.qidg.graph import QIDG
from repro.sim.engine import FabricSimulator, SimulationOutcome

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mapper.result import MappingResult


class PipelineObserver:
    """Per-stage hooks of a pipeline run.

    Subclass and override any subset of the methods; the defaults do
    nothing.  Observers see the live context, so they can inspect (but should
    not replace) the intermediate products.

    Example::

        class StageLogger(PipelineObserver):
            def stage_finished(self, stage, ctx, seconds):
                print(f"{stage}: {seconds * 1000:.1f} ms")
    """

    def stage_started(self, stage: str, ctx: "PipelineContext") -> None:
        """Called immediately before ``stage`` runs."""

    def stage_finished(self, stage: str, ctx: "PipelineContext", seconds: float) -> None:
        """Called after ``stage`` completed, with its wall-clock duration."""


@dataclass
class PipelineContext:
    """Everything a pipeline run reads and produces.

    The immutable inputs (``circuit``, ``fabric``, ``options``,
    ``mapper_name``) are set by
    :func:`~repro.pipeline.stages.run_pipeline`; the remaining slots are
    filled by the stages as the run progresses.

    Attributes:
        circuit: The circuit being mapped.
        fabric: The target fabric.
        options: The mapping options (placer name, seeds, routing policy, …).
        mapper_name: Name stamped on the result (``"QSPR"`` by default).
        qidg: Dependency graph of ``circuit`` (build-qidg stage).
        ideal_latency: Critical-path lower bound (build-qidg stage).
        forward_sim: Forward simulator over ``circuit`` (build-qidg stage).
        placement: Initial placement chosen by a simple placer strategy;
            evaluated by the simulate stage.
        outcome: The evaluated winning pass, as the forward execution it
            stands for (place or simulate stage).
        result: The packaged result (package-result stage).
        stage_seconds: Wall-clock duration of each completed stage, keyed by
            stage name, in execution order.
    """

    circuit: QuantumCircuit
    fabric: Fabric
    options: MapperOptions
    mapper_name: str = "QSPR"
    qidg: QIDG | None = None
    ideal_latency: float | None = None
    forward_sim: FabricSimulator | None = None
    placement: Placement | None = None
    outcome: SimulationOutcome | None = None
    result: "MappingResult | None" = None
    stage_seconds: dict[str, float] = field(default_factory=dict)

    def make_simulator(
        self,
        circuit: QuantumCircuit | None = None,
        qidg: QIDG | None = None,
        forced_order: list[int] | None = None,
    ) -> FabricSimulator:
        """Construct a simulator configured by this context's options.

        Defaults to the forward circuit and its QIDG; MVFB's backward passes
        pass the uncompute circuit, its UIDG and the reversed forced order.
        """
        options = self.options
        return FabricSimulator(
            circuit if circuit is not None else self.circuit,
            self.fabric,
            options.technology,
            routing_policy=options.routing_policy(),
            scheduler=options.scheduling_policy(),
            forced_order=forced_order,
            qidg=qidg if qidg is not None else self.qidg,
            barrier_scheduling=options.barrier_scheduling and forced_order is None,
        )

    def simulate(self, placement: Placement) -> SimulationOutcome:
        """Run the forward simulator from ``placement`` (placer helper)."""
        return self.forward_sim.run(placement)
