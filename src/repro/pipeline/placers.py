"""The placer registry and the built-in placement strategies.

A *placer strategy* is a callable invoked by the pipeline's place stage as
``strategy(ctx)`` with the live :class:`~repro.pipeline.context.PipelineContext`.
It returns either

* a :class:`~repro.placement.base.Placement` — an initial placement the
  pipeline's simulate stage will evaluate (the simple case; see
  :func:`center_strategy`), or
* a :class:`~repro.sim.engine.SimulationOutcome` — the winning pass of a
  search placer that already ran simulations itself, as the forward
  execution it stands for and with ``placement_runs`` set to the number of
  passes the search ran (:func:`monte_carlo_strategy`, :func:`mvfb_strategy`).

Third-party placers register through the decorator::

    from repro.pipeline import PLACERS

    @PLACERS.register("corner")
    def corner_strategy(ctx):
        return Placement({q.name: trap_id for q, trap_id in ...})

and are immediately usable by name everywhere a placer is named: in
``MapperOptions(placer="corner")``, ``repro.map_circuit(..., placer="corner")``,
``ExperimentSpec(placer="corner")`` and the ``qspr-map`` CLI.
"""

from __future__ import annotations

from repro.errors import MappingError
from repro.pipeline.context import PipelineContext
from repro.pipeline.registry import Registry
from repro.placement.base import Placement
from repro.placement.center import CenterPlacer
from repro.placement.monte_carlo import MonteCarloPlacer
from repro.placement.mvfb import MvfbPlacer
from repro.qidg.graph import build_qidg
from repro.qidg.uidg import reverse_schedule
from repro.sim.engine import SimulationOutcome

#: The placer registry.  Built-ins: ``mvfb``, ``monte-carlo``, ``center``.
PLACERS = Registry("placer")


@PLACERS.register("center")
def center_strategy(ctx: PipelineContext) -> Placement:
    """Deterministic densest-around-the-center placement (QUALE's strategy).

    Returns the bare placement; the pipeline's simulate stage evaluates it
    with one forward pass.
    """
    return CenterPlacer(ctx.fabric).place(ctx.circuit)


@PLACERS.register("monte-carlo")
def monte_carlo_strategy(ctx: PipelineContext) -> SimulationOutcome:
    """Best of ``m'`` random center placements (the paper's MC baseline).

    ``m'`` is ``num_placements``, or the MVFB seed count ``m`` when unset.
    """
    options = ctx.options
    placer = MonteCarloPlacer(ctx.fabric, ctx.simulate)
    runs = options.num_placements or options.num_seeds
    return placer.run(ctx.circuit, runs, seed=options.random_seed)


@PLACERS.register("mvfb")
def mvfb_strategy(ctx: PipelineContext) -> SimulationOutcome:
    """The paper's Multi-start Variable-length Forward/Backward search.

    Runs alternating forward (QIDG) and backward (UIDG, reversed schedule)
    passes for ``m`` random seeds and keeps the best pass in either
    direction.  A backward winner comes back as its equivalent forward
    execution: the forward circuit starts from the backward pass's final
    placement and replays the reverse of the backward control trace.

    Raises:
        MappingError: If the circuit contains measurements (an uncompute
            pass requires reversibility).
    """
    options = ctx.options
    circuit = ctx.circuit
    if any(instruction.is_measurement for instruction in circuit.instructions):
        raise MappingError(
            "MVFB placement requires a reversible circuit; remove measurements or "
            "use the Monte-Carlo/center placer"
        )
    inverse_circuit = circuit.inverse()
    uidg = build_qidg(inverse_circuit)

    def backward(placement: Placement, forward_schedule: list[int]) -> SimulationOutcome:
        order = reverse_schedule(forward_schedule, circuit.num_instructions)
        simulator = ctx.make_simulator(inverse_circuit, uidg, forced_order=order)
        return simulator.run(placement)

    placer = MvfbPlacer(ctx.fabric, ctx.simulate, backward)
    return placer.run(circuit, options.num_seeds, seed=options.random_seed)
