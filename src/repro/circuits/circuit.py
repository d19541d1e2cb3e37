"""Quantum circuit object model.

A :class:`QuantumCircuit` is an ordered list of :class:`Instruction` objects
over named :class:`Qubit` operands.  The instruction order is the *program
order*: the dependency graph (:mod:`repro.qidg`) derives its edges from the
per-qubit ordering of instructions, exactly as the paper's QIDG does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.circuits.gates import GateSpec, get_gate
from repro.errors import CircuitError


@dataclass(frozen=True)
class Qubit:
    """A named qubit of a circuit.

    Attributes:
        name: Unique identifier within the circuit (e.g. ``q3``).
        index: Position in declaration order, starting from 0.
        initial_value: Optional classical initial value (0/1) from the
            ``QUBIT name,value`` declaration form; ``None`` for data qubits
            whose state is an input to the circuit.
    """

    name: str
    index: int
    initial_value: int | None = None

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Instruction:
    """A single gate or measurement applied to one or two qubits.

    Attributes:
        index: Position in program order, starting from 0.  Unique within a
            circuit and used as the node identifier in the QIDG.
        gate: The gate specification.
        qubits: Operand qubits; for controlled gates the control comes first.
        label: Optional human-readable label carried into traces.
        qubit_names: Names of the operand qubits, in order; derived from
            ``qubits`` once, when the instruction is built, so it takes no
            part in ``==``, ``hash`` or ``repr``.
    """

    index: int
    gate: GateSpec
    qubits: tuple[Qubit, ...]
    label: str | None = None
    qubit_names: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.qubits) != self.gate.arity:
            raise CircuitError(
                f"gate {self.gate.name} takes {self.gate.arity} operand(s), "
                f"got {len(self.qubits)}"
            )
        names = tuple(q.name for q in self.qubits)
        if len(set(names)) != len(names):
            raise CircuitError(
                f"instruction {self.index}: duplicate operand in {self.gate.name}"
            )
        object.__setattr__(self, "qubit_names", names)

    @property
    def arity(self) -> int:
        """Number of qubit operands."""
        return self.gate.arity

    @property
    def is_two_qubit(self) -> bool:
        """Whether the instruction involves two qubits (needs routing)."""
        return self.gate.arity == 2

    @property
    def is_measurement(self) -> bool:
        """Whether the instruction is a measurement."""
        return self.gate.is_measurement

    @property
    def control(self) -> Qubit:
        """Control (source) operand of a two-qubit gate."""
        if not self.is_two_qubit:
            raise CircuitError(f"instruction {self.index} has no control operand")
        return self.qubits[0]

    @property
    def target(self) -> Qubit:
        """Target (destination) operand of a two-qubit gate."""
        if not self.is_two_qubit:
            raise CircuitError(f"instruction {self.index} has no target operand")
        return self.qubits[1]

    def __str__(self) -> str:
        return f"{self.gate.name} {','.join(self.qubit_names)}"


class QuantumCircuit:
    """An ordered quantum circuit over named qubits.

    The class supports incremental construction::

        circuit = QuantumCircuit("bell")
        a = circuit.add_qubit("a")
        b = circuit.add_qubit("b", initial_value=0)
        circuit.h(a)
        circuit.cx(a, b)

    and conversion from/to the QASM dialect via
    :func:`repro.qasm.parse_qasm` / :func:`repro.qasm.write_qasm`.
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self._qubits: list[Qubit] = []
        self._by_name: dict[str, Qubit] = {}
        self._instructions: list[Instruction] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_qubit(self, name: str, initial_value: int | None = None) -> Qubit:
        """Declare a new qubit and return it.

        Raises:
            CircuitError: If a qubit with the same name already exists or the
                initial value is not 0/1.
        """
        if name in self._by_name:
            raise CircuitError(f"qubit {name!r} declared twice")
        if initial_value not in (None, 0, 1):
            raise CircuitError(f"invalid initial value for {name!r}: {initial_value!r}")
        qubit = Qubit(name, len(self._qubits), initial_value)
        self._qubits.append(qubit)
        self._by_name[name] = qubit
        return qubit

    def add_qubits(self, count: int, prefix: str = "q", initial_value: int | None = None) -> list[Qubit]:
        """Declare ``count`` qubits named ``prefix0`` .. ``prefix{count-1}``."""
        return [self.add_qubit(f"{prefix}{i}", initial_value) for i in range(count)]

    def _resolve(self, qubit: Qubit | str) -> Qubit:
        if isinstance(qubit, Qubit):
            resolved = self._by_name.get(qubit.name)
            if resolved is None or resolved is not qubit and resolved != qubit:
                raise CircuitError(f"qubit {qubit.name!r} does not belong to this circuit")
            return resolved
        resolved = self._by_name.get(qubit)
        if resolved is None:
            raise CircuitError(f"qubit {qubit!r} is not declared")
        return resolved

    def append(self, gate_name: str, *qubits: Qubit | str, label: str | None = None) -> Instruction:
        """Append a gate application in program order and return it.

        Args:
            gate_name: Gate mnemonic or alias (case-insensitive).
            qubits: Operand qubits (objects or names), control first.
            label: Optional label carried into traces.
        """
        gate = get_gate(gate_name)
        operands = tuple(self._resolve(q) for q in qubits)
        instruction = Instruction(len(self._instructions), gate, operands, label)
        self._instructions.append(instruction)
        return instruction

    # Convenience wrappers for the common gate set -----------------------
    def h(self, qubit: Qubit | str) -> Instruction:
        """Append a Hadamard gate."""
        return self.append("H", qubit)

    def x(self, qubit: Qubit | str) -> Instruction:
        """Append a Pauli-X gate."""
        return self.append("X", qubit)

    def y(self, qubit: Qubit | str) -> Instruction:
        """Append a Pauli-Y gate."""
        return self.append("Y", qubit)

    def z(self, qubit: Qubit | str) -> Instruction:
        """Append a Pauli-Z gate."""
        return self.append("Z", qubit)

    def s(self, qubit: Qubit | str) -> Instruction:
        """Append an S (phase) gate."""
        return self.append("S", qubit)

    def t(self, qubit: Qubit | str) -> Instruction:
        """Append a T (pi/8) gate."""
        return self.append("T", qubit)

    def cx(self, control: Qubit | str, target: Qubit | str) -> Instruction:
        """Append a controlled-X (CNOT) gate."""
        return self.append("C-X", control, target)

    def cy(self, control: Qubit | str, target: Qubit | str) -> Instruction:
        """Append a controlled-Y gate."""
        return self.append("C-Y", control, target)

    def cz(self, control: Qubit | str, target: Qubit | str) -> Instruction:
        """Append a controlled-Z gate."""
        return self.append("C-Z", control, target)

    def swap(self, a: Qubit | str, b: Qubit | str) -> Instruction:
        """Append a SWAP gate."""
        return self.append("SWAP", a, b)

    def measure(self, qubit: Qubit | str) -> Instruction:
        """Append a measurement."""
        return self.append("MEASURE", qubit)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def qubits(self) -> tuple[Qubit, ...]:
        """All declared qubits in declaration order."""
        return tuple(self._qubits)

    @property
    def num_qubits(self) -> int:
        """Number of declared qubits."""
        return len(self._qubits)

    @property
    def instructions(self) -> tuple[Instruction, ...]:
        """All instructions in program order."""
        return tuple(self._instructions)

    @property
    def num_instructions(self) -> int:
        """Number of instructions."""
        return len(self._instructions)

    @property
    def num_two_qubit_gates(self) -> int:
        """Number of two-qubit instructions (the ones that require routing)."""
        return sum(1 for instr in self._instructions if instr.is_two_qubit)

    @property
    def num_single_qubit_gates(self) -> int:
        """Number of single-qubit, non-measurement instructions."""
        return sum(
            1
            for instr in self._instructions
            if not instr.is_two_qubit and not instr.is_measurement
        )

    def qubit(self, name: str) -> Qubit:
        """Look up a declared qubit by name.

        Raises:
            CircuitError: If the qubit does not exist.
        """
        return self._resolve(name)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __len__(self) -> int:
        return len(self._instructions)

    def __repr__(self) -> str:
        return (
            f"QuantumCircuit(name={self.name!r}, qubits={self.num_qubits}, "
            f"instructions={self.num_instructions})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantumCircuit):
            return NotImplemented
        return (
            self.qubits == other.qubits
            and [(i.gate.name, i.qubit_names) for i in self._instructions]
            == [(i.gate.name, i.qubit_names) for i in other._instructions]
        )

    def __hash__(self) -> int:  # pragma: no cover - circuits are mutable containers
        return id(self)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def inverse(self, name: str | None = None) -> "QuantumCircuit":
        """Return the uncompute circuit: reversed order, inverted gates.

        Measurements cannot be inverted; circuits containing measurements
        raise :class:`CircuitError`.
        """
        inverse_circuit = QuantumCircuit(name or f"{self.name}_inverse")
        for qubit in self._qubits:
            inverse_circuit.add_qubit(qubit.name, qubit.initial_value)
        for instruction in reversed(self._instructions):
            if instruction.is_measurement:
                raise CircuitError("cannot invert a circuit containing measurements")
            inverse_circuit.append(
                instruction.gate.inverse_name,
                *[q.name for q in instruction.qubits],
                label=instruction.label,
            )
        return inverse_circuit
