"""The Multi-start Variable-length Forward/Backward (MVFB) placer.

This is the paper's main placement contribution (Section IV.A).  It exploits
the reversibility of quantum computation:

1. Start from a random center placement ``P1`` and execute the QIDG forward
   with the scheduler/router; this produces a control trace, a forward
   latency ``L1`` and — as an incidental effect — a final placement ``P1'``.
2. Execute the UIDG (the uncompute circuit) with the *reversed* schedule
   ``S*`` starting from ``P1'``; this produces a backward latency ``L1'`` and
   a new placement ``P2``, which seeds the next forward pass.
3. Repeat; each seed's local search stops when the best latency has not
   improved for three consecutive placement runs.
4. Multi-start: repeat the whole process for ``m`` random seeds and keep the
   overall best forward or backward computation.

If the best solution comes from a backward pass ``k``, the reported solution
is the placement ``P(k+1)``, the *reverse* of the backward trace and the
backward latency — see
:meth:`~repro.sim.engine.SimulationOutcome.forward_equivalent`.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.circuits.circuit import QuantumCircuit
from repro.errors import PlacementError
from repro.fabric.fabric import Fabric
from repro.placement.base import Placement
from repro.placement.center import CenterPlacer
from repro.sim.engine import SimulationOutcome

#: Forward evaluation: map the circuit from the given initial placement.
ForwardEvaluator = Callable[[Placement], SimulationOutcome]
#: Backward evaluation: map the *uncompute* circuit from the given placement,
#: replaying the reversed schedule of the preceding forward pass.
BackwardEvaluator = Callable[[Placement, list[int]], SimulationOutcome]

#: Consecutive non-improving placement runs that end a seed's local search
#: (3 in the paper).
PATIENCE = 3
#: Hard cap on placement runs per seed, guarding against pathological
#: oscillation.
MAX_RUNS_PER_SEED = 40


class MvfbPlacer:
    """Multi-start variable-length forward/backward placement search."""

    def __init__(
        self,
        fabric: Fabric,
        forward: ForwardEvaluator,
        backward: BackwardEvaluator,
    ) -> None:
        """Create an MVFB placer.

        Args:
            fabric: The target fabric.
            forward: Forward mapping pass (QIDG, priority schedule).
            backward: Backward mapping pass (UIDG, reversed schedule).
        """
        self.fabric = fabric
        self.forward = forward
        self.backward = backward
        self.center = CenterPlacer(fabric)

    def run(
        self,
        circuit: QuantumCircuit,
        num_seeds: int,
        *,
        seed: int = 0,
    ) -> SimulationOutcome:
        """Run the MVFB search with ``num_seeds`` random starting placements.

        Args:
            circuit: The circuit to place.
            num_seeds: The paper's ``m`` (25 or 100 in the experiments).
            seed: Seed of the permutation generator.

        Returns:
            The forward equivalent of the lowest-latency pass in either
            direction (the first one on ties), with ``placement_runs`` set to
            the number of passes across all seeds (the quantity Table 1
            reports and that the Monte-Carlo baseline is given twice of).

        Raises:
            PlacementError: If ``num_seeds`` is not positive.
        """
        if num_seeds < 1:
            raise PlacementError("MVFB needs at least one random seed")
        rng = random.Random(seed)
        best: SimulationOutcome | None = None
        runs = 0
        for _ in range(num_seeds):
            placement = self.center.random_placement(circuit, rng)
            seed_best = float("inf")
            non_improving = 0
            seed_runs = 0
            while non_improving < PATIENCE and seed_runs < MAX_RUNS_PER_SEED:
                if seed_runs % 2 == 0:
                    outcome = self.forward(placement)
                    forward_schedule = outcome.schedule
                else:
                    # The backward pass replays the forward schedule reversed.
                    outcome = self.backward(placement, forward_schedule)
                    outcome.direction = "backward"
                seed_runs += 1
                if outcome.latency < seed_best:
                    seed_best = outcome.latency
                    non_improving = 0
                else:
                    non_improving += 1
                if best is None or outcome.latency < best.latency:
                    best = outcome
                # Each pass starts where the previous one left the qubits
                # (a backward pass leaves the paper's P_{k+1}).
                placement = outcome.final_placement
            runs += seed_runs

        assert best is not None
        winner = best.forward_equivalent()
        winner.placement_runs = runs
        return winner
