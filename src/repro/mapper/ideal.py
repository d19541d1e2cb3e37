"""The ideal baseline: zero routing and congestion delay.

Section V.A defines an ideal circuit fabric model with ``T_congestion = 0``
and ``T_routing = 0``; the execution latency of this model — the critical
path of the QIDG weighted by gate delays — is a lower bound on any placed and
routed result and is the "Baseline" column of Table 2.
"""

from __future__ import annotations

from repro.circuits.circuit import QuantumCircuit
from repro.qidg.analysis import critical_path_latency
from repro.qidg.graph import build_qidg
from repro.technology import PAPER_TECHNOLOGY, TechnologyParams


class IdealBaseline:
    """Computes the ideal-baseline latency of circuits."""

    def __init__(self, technology: TechnologyParams = PAPER_TECHNOLOGY) -> None:
        self.technology = technology

    def latency(self, circuit: QuantumCircuit) -> float:
        """Ideal-baseline latency of ``circuit``."""
        return critical_path_latency(build_qidg(circuit), self.technology)
