"""Sweep technology parameters: how turn delay and channel capacity shape latency.

Run with::

    python examples/technology_sweep.py [--circuit "[[9,1,3]]"]

Two sweeps are performed on one benchmark circuit:

1. *Turn delay* — the paper notes a turn costs 5x-30x a move.  The sweep
   shows how the mapped latency grows with the turn delay and how much of
   that growth turn-aware routing avoids.
2. *Channel capacity* — multiplexing ions in channels (capacity 2) is one of
   QSPR's claimed advantages; the sweep compares capacities 1, 2 and 3.

This example constructs :class:`~repro.technology.TechnologyParams`
directly; to run the same comparisons declaratively (named technologies in
the ``TECHNOLOGIES`` registry, crossed with schedulers and routing features
in one ``Sweep``), see ``docs/SCENARIOS.md`` and
``examples/scenario_ablation.py``.
"""

from __future__ import annotations

import argparse

from repro import MapperOptions, QsprMapper, TechnologyParams, quale_fabric
from repro.analysis import format_comparison_table
from repro.circuits.qecc import BENCHMARK_NAMES, qecc_encoder


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--circuit", default="[[9,1,3]]", choices=list(BENCHMARK_NAMES), help="benchmark circuit"
    )
    parser.add_argument("--seeds", type=int, default=2, help="MVFB seeds m (default: 2)")
    args = parser.parse_args()

    fabric = quale_fabric()
    circuit = qecc_encoder(args.circuit)

    # Sweep 1: turn delay, with and without turn-aware path selection.
    rows = []
    for turn_delay in (5.0, 10.0, 20.0, 30.0):
        technology = TechnologyParams(turn_delay=turn_delay)
        aware = QsprMapper(
            MapperOptions(technology=technology, num_seeds=args.seeds)
        ).map(circuit, fabric)
        oblivious = QsprMapper(
            MapperOptions(
                technology=technology, num_seeds=args.seeds, turn_aware_routing=False
            )
        ).map(circuit, fabric)
        rows.append((turn_delay, aware.latency, oblivious.latency,
                     oblivious.latency - aware.latency))
    print(
        format_comparison_table(
            f"Turn-delay sweep for {args.circuit}",
            ["T_turn (us)", "turn-aware (us)", "turn-oblivious (us)", "saved (us)"],
            rows,
        )
    )

    # Sweep 2: channel capacity (ion multiplexing).
    rows = []
    for capacity in (1, 2, 3):
        options = MapperOptions(
            technology=TechnologyParams(channel_capacity=capacity), num_seeds=args.seeds
        )
        result = QsprMapper(options).map(circuit, fabric)
        rows.append((capacity, result.latency, result.total_congestion_delay))
    print(
        format_comparison_table(
            f"Channel-capacity sweep for {args.circuit}",
            ["capacity", "latency (us)", "total congestion wait (us)"],
            rows,
        )
    )


if __name__ == "__main__":
    main()
