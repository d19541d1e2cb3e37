"""Placement data structures.

A :class:`Placement` is an assignment of circuit qubits to distinct fabric
traps.  Placements are immutable; placers return new instances.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.circuits.circuit import QuantumCircuit
from repro.errors import PlacementError
from repro.fabric.components import TrapId
from repro.fabric.fabric import Fabric


class Placement:
    """An assignment of qubit names to trap ids.

    A trap may hold more than one qubit (the paper's traps accommodate two
    qubits, as required by two-qubit gates); :meth:`validate` checks the
    sharing limit.
    """

    def __init__(self, assignment: Mapping[str, TrapId]) -> None:
        self._assignment = dict(assignment)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def trap_sharing(self) -> dict[TrapId, int]:
        """Number of qubits per occupied trap."""
        counts: dict[TrapId, int] = {}
        for trap in self._assignment.values():
            counts[trap] = counts.get(trap, 0) + 1
        return counts

    @property
    def qubits(self) -> list[str]:
        """Placed qubit names, in insertion order."""
        return list(self._assignment)

    @property
    def traps(self) -> list[TrapId]:
        """Occupied trap ids, in insertion order."""
        return list(self._assignment.values())

    def as_dict(self) -> dict[str, TrapId]:
        """A copy of the underlying assignment."""
        return dict(self._assignment)

    def __iter__(self) -> Iterator[tuple[str, TrapId]]:
        return iter(self._assignment.items())

    def __len__(self) -> int:
        return len(self._assignment)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Placement):
            return NotImplemented
        return self._assignment == other._assignment

    def __hash__(self) -> int:
        return hash(frozenset(self._assignment.items()))

    def __repr__(self) -> str:
        return f"Placement({self._assignment!r})"

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(
        self, circuit: QuantumCircuit, fabric: Fabric, *, max_per_trap: int = 2
    ) -> None:
        """Check the placement covers the circuit and fits the fabric.

        Raises:
            PlacementError: If a circuit qubit is unplaced, a placed qubit is
                unknown to the circuit, a trap id does not exist, or a trap
                holds more than ``max_per_trap`` qubits.
        """
        circuit_qubits = {qubit.name for qubit in circuit.qubits}
        placed = set(self._assignment)
        missing = circuit_qubits - placed
        if missing:
            raise PlacementError(f"unplaced qubits: {sorted(missing)}")
        unknown = placed - circuit_qubits
        if unknown:
            raise PlacementError(f"placement mentions unknown qubits: {sorted(unknown)}")
        for qubit, trap_id in self._assignment.items():
            if trap_id not in fabric.traps:
                raise PlacementError(f"qubit {qubit!r} placed in unknown trap {trap_id}")
        for trap_id, count in self.trap_sharing().items():
            if count > max_per_trap:
                raise PlacementError(
                    f"trap {trap_id} holds {count} qubits (limit {max_per_trap})"
                )

