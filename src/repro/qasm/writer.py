"""Serialisation of circuits back to the QASM dialect.

:func:`write_qasm` is the inverse of :func:`repro.qasm.parser.parse_qasm`;
parsing the output reproduces an equivalent circuit (same qubits in the same
order, same instruction list).  This round-trip property is exercised by the
property-based tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.circuits.circuit import QuantumCircuit


def _declaration_lines(circuit: "QuantumCircuit") -> Iterable[str]:
    for qubit in circuit.qubits:
        if qubit.initial_value is None:
            yield f"QUBIT {qubit.name}"
        else:
            yield f"QUBIT {qubit.name},{qubit.initial_value}"


def _operation_lines(circuit: "QuantumCircuit") -> Iterable[str]:
    for instruction in circuit.instructions:
        operands = ",".join(qubit.name for qubit in instruction.qubits)
        if instruction.is_measurement:
            yield f"MEASURE {operands}"
        else:
            yield f"{instruction.gate.name} {operands}"


def write_qasm(circuit: "QuantumCircuit", *, header: bool = True) -> str:
    """Serialise ``circuit`` to QASM text.

    Args:
        circuit: The circuit to serialise.
        header: When true, prepend a comment naming the circuit.

    Returns:
        The QASM program as a string terminated by a newline.
    """
    lines: list[str] = []
    if header:
        lines.append(f"# {circuit.name}")
    lines.extend(_declaration_lines(circuit))
    lines.extend(_operation_lines(circuit))
    return "\n".join(lines) + "\n"
