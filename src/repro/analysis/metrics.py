"""Latency metrics and schedule statistics over mapping results."""

from __future__ import annotations

from dataclasses import dataclass

from repro.mapper.result import MappingResult
from repro.sim.engine import InstructionRecord


@dataclass(frozen=True)
class LatencyBreakdown:
    """Decomposition of a mapping result's latency-related totals.

    The per-instruction delay model is Eq. 1 of the paper:
    ``delay = T_gate + T_routing + T_congestion``.  These totals are summed
    over instructions (they exceed the makespan because instructions overlap
    in time); the share columns show where the overhead concentrates.

    Attributes:
        latency: Makespan of the mapped circuit (µs).
        ideal_latency: QIDG critical path with gate delays only (µs).
        total_gate_time: Sum of all instructions' gate delays.
        total_routing_time: Sum of all instructions' routing delays.
        total_congestion_time: Sum of all instructions' busy-queue waits.
        total_moves: Total single-cell moves over all qubits.
        total_turns: Total turns over all qubits.
    """

    latency: float
    ideal_latency: float
    total_gate_time: float
    total_routing_time: float
    total_congestion_time: float
    total_moves: int
    total_turns: int

    @property
    def overhead(self) -> float:
        """Latency beyond the ideal baseline (µs)."""
        return self.latency - self.ideal_latency

    @property
    def routing_share(self) -> float:
        """Fraction of the summed instruction delay spent routing."""
        total = self.total_gate_time + self.total_routing_time + self.total_congestion_time
        return self.total_routing_time / total if total else 0.0

    @property
    def congestion_share(self) -> float:
        """Fraction of the summed instruction delay spent waiting on channels."""
        total = self.total_gate_time + self.total_routing_time + self.total_congestion_time
        return self.total_congestion_time / total if total else 0.0


def latency_breakdown(result: MappingResult) -> LatencyBreakdown:
    """Compute the :class:`LatencyBreakdown` of a mapping result."""
    records = result.records.values()
    return LatencyBreakdown(
        latency=result.latency,
        ideal_latency=result.ideal_latency,
        total_gate_time=sum(record.gate_delay for record in records),
        total_routing_time=sum(record.routing_delay for record in records),
        total_congestion_time=sum(record.congestion_delay for record in records),
        total_moves=result.total_moves,
        total_turns=result.total_turns,
    )


def schedule_parallelism(records: dict[int, InstructionRecord]) -> float:
    """Average number of instructions in flight over the run.

    Computed as the ratio of summed instruction durations (issue to finish)
    to the makespan.  A value of 1.0 means fully sequential execution.
    """
    if not records:
        return 0.0
    makespan = max(record.finish_time for record in records.values())
    if makespan <= 0:
        return 0.0
    busy = sum(record.finish_time - record.issue_time for record in records.values())
    return busy / makespan
