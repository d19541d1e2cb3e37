"""The result of an end-to-end mapping run."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mapper.options import MapperOptions
from repro.placement.base import Placement
from repro.routing.compiled import RoutingCoreStats
from repro.sim.engine import InstructionRecord, SimulationOutcome
from repro.sim.events import EventLoopStats
from repro.sim.trace import ControlTrace


class _TraceField:
    """The ``trace`` field of :class:`MappingResult`, read on first access.

    It holds a :class:`~repro.sim.trace.ControlTrace`, or the winning
    :class:`~repro.sim.engine.SimulationOutcome`, whose trace the first read
    builds and keeps in its place.  A job that never reads ``trace`` thus
    constructs no micro-command.
    """

    def __get__(self, result, owner=None) -> ControlTrace:
        if result is None:
            # No value at class level, so the field keeps no default.
            raise AttributeError("trace")
        trace = result.__dict__["trace"]
        if isinstance(trace, SimulationOutcome):
            trace = result.__dict__["trace"] = trace.trace
        return trace

    def __set__(self, result, value: ControlTrace | SimulationOutcome) -> None:
        result.__dict__["trace"] = value


@dataclass
class MappingResult:
    """A scheduled, placed and routed realisation of a circuit on a fabric.

    Attributes:
        circuit_name: Name of the mapped circuit.
        fabric_name: Name of the target fabric.
        mapper_name: Name of the mapper that produced the result.
        latency: Execution latency in microseconds (the paper's figure of
            merit).
        ideal_latency: The zero-routing/zero-congestion lower bound (QIDG
            critical path) for the same circuit and technology.
        schedule: Instruction indices in issue order, expressed over the
            forward circuit.
        initial_placement: Placement the (equivalent forward) execution starts
            from.
        final_placement: Where the qubits rest when the execution finishes.
        trace: Micro-command control trace of the winning pass.  The
            pipeline passes the winning
            :class:`~repro.sim.engine.SimulationOutcome` instead, whose
            trace the first read builds, so a job that never reads it
            builds none.
        records: Per-instruction timing records of the winning pass.
        direction: ``"forward"`` or ``"backward"`` — which MVFB pass won.
        placement_runs: Number of placement runs performed by the placer.
        total_moves: Total qubit moves in the winning pass.
        total_turns: Total qubit turns in the winning pass.
        total_congestion_delay: Summed busy-queue waiting time.
        cpu_seconds: Wall-clock mapping time (all placement runs included).
        options: The options the mapper ran with.
        stage_seconds: Per-stage wall-clock breakdown of the pipeline run,
            keyed by stage name in execution order (empty for mappers that
            do not run the pipeline).  Dotted sub-keys such as
            ``simulate.routing`` attribute a stage's time to the routing
            core.
        routing_seconds: Wall-clock time the winning pass spent planning
            routes inside the router.
        routing_stats: Routing-core counters of the winning pass (route
            cache hits/misses, Dijkstra calls, heap pops, edge relaxations).
        event_stats: Event-loop counters of the winning pass (events
            processed, peak heap size, wake hits, skipped/executed issue
            polls).
    """

    circuit_name: str
    fabric_name: str
    mapper_name: str
    latency: float
    ideal_latency: float
    schedule: list[int]
    initial_placement: Placement
    final_placement: Placement
    trace: ControlTrace = _TraceField()
    records: dict[int, InstructionRecord]
    direction: str = "forward"
    placement_runs: int = 1
    total_moves: int = 0
    total_turns: int = 0
    total_congestion_delay: float = 0.0
    cpu_seconds: float = 0.0
    options: MapperOptions = field(default_factory=MapperOptions)
    stage_seconds: dict[str, float] = field(default_factory=dict)
    routing_seconds: float = 0.0
    routing_stats: RoutingCoreStats = field(default_factory=RoutingCoreStats)
    event_stats: EventLoopStats = field(default_factory=EventLoopStats)

    @property
    def overhead_vs_ideal(self) -> float:
        """Latency added by routing and congestion (Table 2's "difference")."""
        return self.latency - self.ideal_latency

    @property
    def overhead_ratio(self) -> float:
        """Latency relative to the ideal baseline (1.0 means no overhead)."""
        if self.ideal_latency == 0:
            return float("inf")
        return self.latency / self.ideal_latency

    def improvement_over(self, other: "MappingResult | float") -> float:
        """Percentage improvement of this result over ``other`` (Table 2).

        Args:
            other: Another result (or a raw latency) to compare against.

        Returns:
            ``100 * (other - self) / other``; positive when this result is
            faster.
        """
        other_latency = other.latency if isinstance(other, MappingResult) else float(other)
        if other_latency == 0:
            return 0.0
        return 100.0 * (other_latency - self.latency) / other_latency

    def summary(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"{self.mapper_name} mapping of {self.circuit_name} onto {self.fabric_name}",
            f"  latency           : {self.latency:.1f} us",
            f"  ideal baseline    : {self.ideal_latency:.1f} us",
            f"  routing+congestion: {self.overhead_vs_ideal:.1f} us",
            f"  winning direction : {self.direction}",
            f"  placement runs    : {self.placement_runs}",
            f"  moves / turns     : {self.total_moves} / {self.total_turns}",
            f"  congestion delay  : {self.total_congestion_delay:.1f} us",
            f"  route cache       : {self.routing_stats.cache_hits} hits / "
            f"{self.routing_stats.cache_misses} misses "
            f"({100 * self.routing_stats.cache_hit_rate:.1f}% hit rate)",
            f"  dijkstra core     : {self.routing_stats.dijkstra_calls} calls, "
            f"{self.routing_stats.heap_pops} heap pops, "
            f"{self.routing_stats.edge_relaxations} relaxations",
            f"  event loop        : {self.event_stats.events_processed} events, "
            f"{self.event_stats.issue_polls} polls "
            f"({self.event_stats.skipped_polls} skipped), "
            f"{self.event_stats.wake_hits} wakes",
            f"  mapping CPU time  : {self.cpu_seconds * 1000:.0f} ms",
            f"  options           : {self.options.describe()}",
        ]
        return "\n".join(lines)
