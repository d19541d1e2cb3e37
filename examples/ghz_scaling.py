"""Latency scaling of GHZ-state preparation with qubit count.

Run with::

    python examples/ghz_scaling.py [--max-qubits 16]

GHZ preparation is fully sequential (every CNOT shares the hub qubit), so its
ideal latency grows linearly with the number of qubits; on a real fabric the
hub's partners must additionally travel to meet it, and this script shows how
much of the mapped latency is routing as the state grows.
"""

from __future__ import annotations

import argparse

from repro import IdealBaseline, MapperOptions, QsprMapper, quale_fabric
from repro.analysis import format_comparison_table
from repro.circuits.builders import ghz_circuit


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-qubits", type=int, default=16, help="largest GHZ state (default 16)")
    parser.add_argument("--seeds", type=int, default=2, help="MVFB seeds m (default 2)")
    args = parser.parse_args()

    fabric = quale_fabric()
    ideal = IdealBaseline()

    rows = []
    sizes = [n for n in (4, 8, 12, 16, 20, 24) if n <= args.max_qubits]
    for size in sizes:
        circuit = ghz_circuit(size)
        result = QsprMapper(MapperOptions(num_seeds=args.seeds)).map(circuit, fabric)
        rows.append((size, ideal.latency(circuit), result.latency, result.overhead_vs_ideal))

    print(
        format_comparison_table(
            "GHZ preparation: latency vs number of qubits",
            ["qubits", "ideal latency (us)", "mapped latency (us)", "routing overhead (us)"],
            rows,
        )
    )


if __name__ == "__main__":
    main()
