"""Output checks against references the mapper under test did not produce.

* The ideal latency of a QECC encoder must equal the paper's Table 2
  baseline (``QECC_BENCHMARKS[name].paper_baseline_us``).
* The ideal latency of every circuit must equal the critical path this module
  computes itself from the circuit's instruction list and the technology's
  gate delays (an ASAP pass over per-qubit program order).
* Every mapped latency is at least the ideal latency.
* A schedule is a permutation of the instruction indices that keeps each
  qubit's gates in program order.
"""

from __future__ import annotations

from repro.circuits.qecc import QECC_BENCHMARKS
from repro.pipeline.technologies import resolve_technology

#: Technologies whose gate delays are the paper's, so the Table 2 baseline holds.
PAPER_DELAY_TECHNOLOGIES = ("paper", "cap-1")

_TOLERANCE = 1e-6


def reference_ideal_latency(circuit, technology) -> float:
    """Critical-path latency from per-qubit program order alone."""
    ready: dict[str, float] = {}
    finish_max = 0.0
    for instruction in circuit.instructions:
        names = [qubit.name for qubit in instruction.qubits]
        start = max((ready.get(name, 0.0) for name in names), default=0.0)
        finish = start + technology.gate_delay(
            instruction.arity, is_measurement=instruction.is_measurement
        )
        for name in names:
            ready[name] = finish
        finish_max = max(finish_max, finish)
    return finish_max


def schedule_problems(circuit, schedule) -> list[str]:
    """Why ``schedule`` is not a dependency-respecting order (empty if it is)."""
    count = circuit.num_instructions
    if sorted(schedule) != list(range(count)):
        return [f"schedule is not a permutation of {count} instruction indices"]
    position = {index: rank for rank, index in enumerate(schedule)}
    last_seen: dict[str, int] = {}
    for instruction in circuit.instructions:
        for qubit in instruction.qubits:
            previous = last_seen.get(qubit.name)
            if previous is not None and position[previous] > position[instruction.index]:
                return [
                    f"schedule issues instruction {instruction.index} before "
                    f"{previous} on qubit {qubit.name}"
                ]
            last_seen[qubit.name] = instruction.index
    return []


def latency_problems(spec, circuit, latency: float, ideal_latency: float) -> list[str]:
    """Problems with a job's latency pair (empty when both hold)."""
    problems = []
    bench = QECC_BENCHMARKS.get(spec.circuit)
    if bench is not None and spec.technology in PAPER_DELAY_TECHNOLOGIES:
        if abs(ideal_latency - bench.paper_baseline_us) > _TOLERANCE:
            problems.append(
                f"ideal latency {ideal_latency} != paper baseline {bench.paper_baseline_us}"
            )
    reference = reference_ideal_latency(circuit, resolve_technology(spec.technology))
    if abs(ideal_latency - reference) > _TOLERANCE:
        problems.append(f"ideal latency {ideal_latency} != critical path {reference}")
    if latency < ideal_latency - _TOLERANCE:
        problems.append(f"latency {latency} below ideal latency {ideal_latency}")
    return problems
