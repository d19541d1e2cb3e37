"""Random-circuit families for workload generation.

Where :func:`repro.circuits.random_circuits.random_circuit` draws a flat
gate list, the families here have knobs that set how hard a circuit
presses on the fabric:

* **width** (``num_qubits``) and **depth** (layers) set the pressure on
  placement and on the fabric's trap capacity;
* **locality** bounds how far apart the operands of a two-qubit gate may
  sit in the declaration order, modelling nearest-neighbour-heavy circuits
  (small locality) versus all-to-all circuits (``locality=0``, unlimited);
* **fill** sets the fraction of qubits touched per layer, separating dense
  brickwork traffic from sparse trickles.

Every family is registered into :data:`repro.pipeline.CIRCUITS`, so a
parameterised name such as ``"random-layered:q=8:d=12:l=2:seed=5"`` works
anywhere a circuit name does — ``qspr-map run``, sweeps and service
submissions.
"""

from __future__ import annotations

import random

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.random_circuits import _ONE_QUBIT_GATES, _TWO_QUBIT_GATES
from repro.errors import CircuitError
from repro.pipeline.circuits import CIRCUITS


def layered_random_circuit(
    num_qubits: int = 8,
    depth: int = 8,
    *,
    locality: int = 0,
    fill: float = 0.5,
    two_qubit_fraction: float = 0.8,
    seed: int = 0,
    name: str | None = None,
) -> QuantumCircuit:
    """A layered (brickwork-style) random circuit.

    Each of the ``depth`` layers touches about ``fill * num_qubits`` qubits:
    qubits are paired into two-qubit gates with probability
    ``two_qubit_fraction`` (respecting ``locality``) and otherwise receive a
    random single-qubit gate.  Deterministic for a given parameter set.

    Args:
        num_qubits: Circuit width.
        depth: Number of layers.
        locality: Maximum declaration-order distance ``|i - j|`` between the
            operands of a two-qubit gate; ``0`` means unlimited (all-to-all).
        fill: Fraction of qubits active per layer, in ``(0, 1]``.
        two_qubit_fraction: Probability that an active pair becomes a
            two-qubit gate rather than two single-qubit gates.
        seed: Seed of the private random generator.
        name: Optional circuit name.

    Raises:
        CircuitError: On invalid parameters.
    """
    if num_qubits < 2:
        raise CircuitError("num_qubits must be at least 2")
    if depth < 1:
        raise CircuitError("depth must be at least 1")
    if locality < 0:
        raise CircuitError("locality must be non-negative")
    if not 0.0 < fill <= 1.0:
        raise CircuitError("fill must be within (0, 1]")
    if not 0.0 <= two_qubit_fraction <= 1.0:
        raise CircuitError("two_qubit_fraction must be within [0, 1]")

    rng = random.Random(seed)
    reach = locality if locality > 0 else num_qubits - 1
    circuit = QuantumCircuit(
        name or f"random-layered_{num_qubits}q_{depth}d_l{locality}_s{seed}"
    )
    qubits = circuit.add_qubits(num_qubits, initial_value=0)
    active_per_layer = max(2, round(fill * num_qubits))
    for _ in range(depth):
        active = rng.sample(range(num_qubits), min(active_per_layer, num_qubits))
        unpaired = sorted(active)
        while unpaired:
            index = unpaired.pop(rng.randrange(len(unpaired)))
            partners = [j for j in unpaired if abs(j - index) <= reach]
            if partners and rng.random() < two_qubit_fraction:
                partner = rng.choice(partners)
                unpaired.remove(partner)
                circuit.append(
                    rng.choice(_TWO_QUBIT_GATES), qubits[index], qubits[partner]
                )
            else:
                circuit.append(rng.choice(_ONE_QUBIT_GATES), qubits[index])
    return circuit


@CIRCUITS.register("random-layered")
def random_layered(
    num_qubits: int = 8,
    depth: int = 8,
    *,
    locality: int = 0,
    fill: float = 0.5,
    two_qubit_fraction: float = 0.8,
    seed: int = 0,
) -> QuantumCircuit:
    """Layered random circuits with tunable width/depth/locality/fill."""
    return layered_random_circuit(
        num_qubits,
        depth,
        locality=locality,
        fill=fill,
        two_qubit_fraction=two_qubit_fraction,
        seed=seed,
    )


@CIRCUITS.register("random-local")
def random_local(
    num_qubits: int = 8,
    depth: int = 8,
    *,
    fill: float = 0.5,
    two_qubit_fraction: float = 0.8,
    seed: int = 0,
) -> QuantumCircuit:
    """Nearest-neighbour-heavy variant of ``random-layered`` (locality 1)."""
    return layered_random_circuit(
        num_qubits,
        depth,
        locality=1,
        fill=fill,
        two_qubit_fraction=two_qubit_fraction,
        seed=seed,
    )
