"""Construction of the Quantum Instruction Dependency Graph.

Nodes are instruction indices of the source circuit; an edge ``a -> b``
states that instruction ``b`` reads a qubit last written/used by instruction
``a``.  Qubit declarations are not part of the graph (they carry no delay);
only gate and measurement instructions appear.

Every edge points forward in program order, so ``range(len(qidg))`` is a
topological order and every analysis is one sweep over indices.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.circuits.circuit import Instruction, QuantumCircuit
from repro.errors import CircuitError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.technology import TechnologyParams


class QIDG:
    """Dependency graph over the instructions of a circuit.

    Attributes:
        program: The circuit's instructions in program order, so
            ``program[i]`` is node ``i`` (unchecked; :meth:`instruction`
            checks the range).
        predecessors: ``predecessors[i]`` holds the sorted indices of the
            instructions ``i`` directly depends on.
        successors: ``successors[i]`` holds the sorted indices of the
            instructions that directly depend on ``i``.
    """

    def __init__(
        self,
        circuit: QuantumCircuit,
        predecessors: tuple[tuple[int, ...], ...],
        successors: tuple[tuple[int, ...], ...],
    ) -> None:
        self._circuit = circuit
        self.program = circuit.instructions
        self.predecessors = predecessors
        self.successors = successors
        self._gate_delays: dict[TechnologyParams, tuple[float, ...]] = {}

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def circuit(self) -> QuantumCircuit:
        """The circuit this graph was built from."""
        return self._circuit

    @property
    def num_nodes(self) -> int:
        """Number of instructions in the graph."""
        return len(self.program)

    @property
    def num_edges(self) -> int:
        """Number of dependency edges."""
        return sum(map(len, self.predecessors))

    def instruction(self, index: int) -> Instruction:
        """Return the :class:`Instruction` for node ``index``."""
        if not 0 <= index < len(self.program):
            raise CircuitError(f"instruction {index} is not part of the QIDG")
        return self.program[index]

    def instructions(self) -> Iterator[Instruction]:
        """Iterate over instructions in program order."""
        return iter(self.program)

    def gate_delays(self, technology: TechnologyParams) -> tuple[float, ...]:
        """Each node's ``T_gate`` under ``technology``, by instruction index.

        Memoised per technology, so every pass of a placement search over
        this graph reads one tuple.
        """
        delays = self._gate_delays.get(technology)
        if delays is None:
            delays = self._gate_delays[technology] = tuple(
                technology.gate_delay(instruction.arity, is_measurement=instruction.is_measurement)
                for instruction in self.program
            )
        return delays

    def topological_order(self) -> list[int]:
        """A deterministic topological order (program order is one)."""
        return list(range(len(self.program)))

    def is_valid_order(self, order: list[int]) -> bool:
        """Whether ``order`` is a topological order of the graph.

        Used to validate externally supplied schedules (e.g. the reversed
        schedule of the MVFB backward pass against the UIDG).
        """
        if sorted(order) != self.topological_order():
            return False
        done = [False] * len(order)
        for node in order:
            if not all(done[pred] for pred in self.predecessors[node]):
                return False
            done[node] = True
        return True

    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:
        return f"QIDG(nodes={self.num_nodes}, edges={self.num_edges})"


def build_qidg(circuit: QuantumCircuit) -> QIDG:
    """Build the QIDG of ``circuit``.

    Edges connect each instruction to the *previous* instruction acting on
    each of its operand qubits, which yields the transitive reduction of the
    full data-dependence relation.  Two operands last used by the same
    instruction give one edge.

    Raises:
        CircuitError: If the circuit has no instructions.
    """
    if circuit.num_instructions == 0:
        raise CircuitError("cannot build a QIDG for an empty circuit")
    last_use: dict[str, int] = {}
    predecessors: list[tuple[int, ...]] = []
    successors: list[list[int]] = []
    for index, instruction in enumerate(circuit.instructions):
        names = instruction.qubit_names
        preds = tuple(sorted({last_use[name] for name in names if name in last_use}))
        for pred in preds:
            successors[pred].append(index)
        predecessors.append(preds)
        successors.append([])
        for name in names:
            last_use[name] = index
    return QIDG(circuit, tuple(predecessors), tuple(map(tuple, successors)))
