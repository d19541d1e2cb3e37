"""The ideal baseline: zero routing and congestion delay.

Section V.A defines an ideal circuit fabric model with ``T_congestion = 0``
and ``T_routing = 0``; the execution latency of this model — the critical
path of the QIDG weighted by gate delays — is a lower bound on any placed and
routed result and is the "Baseline" column of Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.circuit import QuantumCircuit
from repro.qidg.analysis import critical_path_latency, longest_path_to_sink
from repro.qidg.graph import build_qidg
from repro.technology import PAPER_TECHNOLOGY, TechnologyParams


@dataclass(frozen=True)
class IdealBaselineResult:
    """Latency of the ideal (zero routing/congestion) fabric model.

    Attributes:
        circuit_name: Name of the analysed circuit.
        latency: Critical-path latency in microseconds.
        critical_path: Instruction indices along one critical path, in
            execution order.
    """

    circuit_name: str
    latency: float
    critical_path: tuple[int, ...]


class IdealBaseline:
    """Computes the ideal-baseline latency of circuits."""

    def __init__(self, technology: TechnologyParams = PAPER_TECHNOLOGY) -> None:
        self.technology = technology

    def latency(self, circuit: QuantumCircuit) -> float:
        """Ideal-baseline latency of ``circuit``."""
        return critical_path_latency(build_qidg(circuit), self.technology)

    def evaluate(self, circuit: QuantumCircuit) -> IdealBaselineResult:
        """Latency plus one witness critical path."""
        qidg = build_qidg(circuit)
        to_sink = longest_path_to_sink(qidg, self.technology)
        latency = max(to_sink.values(), default=0.0)

        # Walk the critical path greedily from the heaviest source.
        path: list[int] = []
        current = max(qidg.sources(), key=lambda n: to_sink[n], default=None)
        while current is not None:
            path.append(current)
            current = max(qidg.successors[current], key=lambda n: to_sink[n], default=None)
        return IdealBaselineResult(circuit.name, latency, tuple(path))
