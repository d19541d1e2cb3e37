"""Register a third-party placer plugin and use it end to end.

Run with::

    python examples/custom_placer.py

The decorator below registers a ``corner`` placement strategy in the
:data:`repro.pipeline.PLACERS` registry.  Without modifying a single core
module, the new placer is immediately addressable by name in

* the one-call facade: ``repro.map_circuit(..., placer="corner")``,
* experiment grids: ``ExperimentSpec(..., placer="corner")``,
* mapper options: ``QsprMapper(MapperOptions(placer="corner"))``.

A placer strategy receives the live
:class:`~repro.pipeline.context.PipelineContext` and returns either a bare
:class:`~repro.placement.base.Placement` (the pipeline simulates it) or the
winning :class:`~repro.sim.engine.SimulationOutcome` of a search that ran
simulations itself, like MVFB, with ``placement_runs`` set to the number of
simulator runs the search made.
"""

from __future__ import annotations

from repro import map_circuit
from repro.analysis import format_comparison_table
from repro.pipeline import PLACERS, PipelineContext
from repro.placement.base import Placement
from repro.runner import ExperimentSpec, execute_cell


@PLACERS.register("corner")
def corner_strategy(ctx: PipelineContext) -> Placement:
    """Pack the qubits into the traps nearest the fabric's top-left corner.

    A deliberately naive baseline: like center placement it ignores the
    circuit's dependency structure, but it packs against the fabric boundary
    instead of the center, which changes the routing pressure pattern.
    """
    traps = ctx.fabric.traps_by_distance((0.0, 0.0))
    return Placement(
        {qubit.name: traps[i].id for i, qubit in enumerate(ctx.circuit.qubits)}
    )


def main() -> None:
    rows = []
    for placer in ("corner", "center"):
        # Through the facade...
        result = map_circuit("[[5,1,3]]", "quale", placer=placer)
        # ...and through the experiment runner (same registry underneath).
        cell = execute_cell(ExperimentSpec("[[5,1,3]]", placer=placer))
        assert cell.latency == result.latency
        rows.append((placer, result.latency, result.total_moves))

    print(
        format_comparison_table(
            "Custom 'corner' placer vs the built-in center placer ([[5,1,3]])",
            ["placer", "latency (us)", "qubit moves"],
            rows,
        )
    )
    print(f"registered placers: {', '.join(PLACERS.names())}")


if __name__ == "__main__":
    main()
