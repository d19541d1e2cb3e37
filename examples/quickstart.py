"""Quickstart: map the paper's [[5,1,3]] encoder onto the 45x85 fabric.

Run with::

    python examples/quickstart.py

The script parses the QASM program printed in the paper (Figure 3), maps it
with QSPR onto the 45x85 ion-trap fabric (Figure 4) and prints the resulting
latency next to the ideal (zero routing/congestion) baseline and the
QUALE-like prior tool, with the share of the delay spent routing.
"""

from __future__ import annotations

from repro import IdealBaseline, MapperOptions, QsprMapper, QualeMapper, quale_fabric
from repro.analysis import latency_breakdown
from repro.circuits.qecc import FIVE_ONE_THREE_QASM
from repro.qasm import parse_qasm


def main() -> None:
    # 1. The circuit: the paper's Figure 3 QASM, parsed into a QuantumCircuit.
    circuit = parse_qasm(FIVE_ONE_THREE_QASM, name="[[5,1,3]] encoder")
    print(f"circuit: {circuit}")
    print(f"  two-qubit gates: {circuit.num_two_qubit_gates}")
    print(f"  single-qubit gates: {circuit.num_single_qubit_gates}")
    print()

    # 2. The fabric: the 45x85-cell ion-trap fabric used in all experiments.
    fabric = quale_fabric()
    print(f"fabric: {fabric}")
    print()

    # 3. Map with QSPR (MVFB placement, m=5 seeds for a quick run).
    qspr = QsprMapper(MapperOptions(num_seeds=5))
    result = qspr.map(circuit, fabric)
    print(result.summary())
    print()

    # 4. Compare against the ideal baseline and the QUALE-like prior tool.
    ideal = IdealBaseline().latency(circuit)
    quale = QualeMapper().map(circuit, fabric)
    print(f"ideal baseline latency : {ideal:.0f} us")
    print(f"QUALE latency          : {quale.latency:.0f} us")
    print(f"QSPR latency           : {result.latency:.0f} us")
    print(f"QSPR improvement       : {result.improvement_over(quale):.1f}% over QUALE")
    print()

    # 5. Where QSPR's delay goes: Eq. 1's routing term against the total.
    breakdown = latency_breakdown(result)
    print(f"routing share of delay : {100 * breakdown.routing_share:.1f}%")


if __name__ == "__main__":
    main()
