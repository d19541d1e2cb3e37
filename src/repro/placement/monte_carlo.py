"""The Monte-Carlo placer (the paper's comparison baseline for MVFB).

Section V.A: "A Monte Carlo placer is implemented that places qubits in the
nearest traps to the center of the fabric in different permutations.  m'
permutations are randomly selected as initial placements, and the scheduled
instructions are routed for each of them.  The execution latency of the
circuit is derived for each placement.  Then, the best result in terms of
latency is selected."
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

#: Signature of the evaluation callback: map the circuit starting from the
#: given placement and return the simulation outcome.
Evaluator = Callable[[Placement], SimulationOutcome]


class MonteCarloPlacer:
    """Best-of-``m'`` random center placements."""

    def __init__(self, fabric: Fabric, evaluate: Evaluator) -> None:
        """Create a Monte-Carlo placer.

        Args:
            fabric: The target fabric.
            evaluate: Callback that maps the circuit for a given initial
                placement (typically a forward pass of the QSPR simulator).
        """
        self.fabric = fabric
        self.evaluate = evaluate
        self.center = CenterPlacer(fabric)

    def run(
        self,
        circuit: QuantumCircuit,
        num_runs: int,
        *,
        seed: int = 0,
    ) -> SimulationOutcome:
        """Evaluate ``num_runs`` random center placements and keep the best.

        Args:
            circuit: The circuit to place.
            num_runs: Number of random permutations (the paper's ``m'``).
            seed: Seed of the permutation generator.

        Returns:
            The lowest-latency outcome (the first one on ties), with
            ``placement_runs`` set to ``num_runs``.

        Raises:
            PlacementError: If ``num_runs`` is not positive.
        """
        if num_runs < 1:
            raise PlacementError("the Monte-Carlo placer needs at least one run")
        rng = random.Random(seed)
        best: SimulationOutcome | None = None
        for _ in range(num_runs):
            outcome = self.evaluate(self.center.random_placement(circuit, rng))
            if best is None or outcome.latency < best.latency:
                best = outcome
        assert best is not None
        best.placement_runs = num_runs
        return best
