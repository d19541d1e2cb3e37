"""Tests for the quantum circuit object model."""

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.errors import CircuitError


class TestConstruction:
    def test_add_qubit(self):
        circuit = QuantumCircuit()
        q = circuit.add_qubit("q0", 0)
        assert q.index == 0
        assert q.initial_value == 0
        assert circuit.num_qubits == 1

    def test_add_qubits_bulk(self):
        circuit = QuantumCircuit()
        qubits = circuit.add_qubits(4, prefix="a")
        assert [q.name for q in qubits] == ["a0", "a1", "a2", "a3"]

    def test_duplicate_qubit_rejected(self):
        circuit = QuantumCircuit()
        circuit.add_qubit("q")
        with pytest.raises(CircuitError):
            circuit.add_qubit("q")

    def test_invalid_initial_value_rejected(self):
        circuit = QuantumCircuit()
        with pytest.raises(CircuitError):
            circuit.add_qubit("q", 3)

    def test_append_by_name(self):
        circuit = QuantumCircuit()
        circuit.add_qubit("a")
        circuit.add_qubit("b")
        instruction = circuit.append("C-X", "a", "b")
        assert instruction.index == 0
        assert instruction.qubit_names == ("a", "b")

    def test_append_unknown_qubit_rejected(self):
        circuit = QuantumCircuit()
        circuit.add_qubit("a")
        with pytest.raises(CircuitError):
            circuit.h("z")

    def test_duplicate_operand_rejected(self):
        circuit = QuantumCircuit()
        circuit.add_qubit("a")
        with pytest.raises(CircuitError):
            circuit.append("C-X", "a", "a")

    def test_convenience_wrappers(self):
        circuit = QuantumCircuit()
        a, b = circuit.add_qubits(2)
        circuit.h(a)
        circuit.x(a)
        circuit.y(a)
        circuit.z(a)
        circuit.s(a)
        circuit.t(a)
        circuit.cx(a, b)
        circuit.cy(a, b)
        circuit.cz(a, b)
        circuit.swap(a, b)
        circuit.measure(b)
        assert circuit.num_instructions == 11


class TestIntrospection:
    def test_counts(self, paper_circuit):
        assert paper_circuit.num_qubits == 5
        assert paper_circuit.num_single_qubit_gates == 4
        assert paper_circuit.num_two_qubit_gates == 8

    def test_control_and_target(self, bell_circuit):
        cx = bell_circuit.instructions[1]
        assert cx.control.name == "a"
        assert cx.target.name == "b"

    def test_control_of_single_qubit_gate_raises(self, bell_circuit):
        h = bell_circuit.instructions[0]
        with pytest.raises(CircuitError):
            _ = h.control

    def test_qubit_lookup(self, bell_circuit):
        assert bell_circuit.qubit("a").index == 0
        assert bell_circuit.qubit("b").index == 1
        with pytest.raises(CircuitError):
            bell_circuit.qubit("zz")

    def test_iteration_and_len(self, bell_circuit):
        assert len(bell_circuit) == 2
        assert [i.gate.name for i in bell_circuit] == ["H", "C-X"]

    def test_equality(self, bell_circuit):
        clone = QuantumCircuit("bell")
        a = clone.add_qubit("a", 0)
        b = clone.add_qubit("b", 0)
        clone.h(a)
        clone.cx(a, b)
        assert clone == bell_circuit

    def test_repr(self, bell_circuit):
        assert "bell" in repr(bell_circuit)


class TestTransformations:
    def test_inverse_reverses_and_inverts(self):
        circuit = QuantumCircuit()
        a, b = circuit.add_qubits(2)
        circuit.s(a)
        circuit.cx(a, b)
        inverse = circuit.inverse()
        assert [i.gate.name for i in inverse] == ["C-X", "SDAG"]

    def test_inverse_of_inverse_is_original_structure(self, paper_circuit):
        double = paper_circuit.inverse().inverse()
        assert [i.gate.name for i in double] == [i.gate.name for i in paper_circuit]
        assert [i.qubit_names for i in double] == [i.qubit_names for i in paper_circuit]

    def test_inverse_rejects_measurement(self):
        circuit = QuantumCircuit()
        q = circuit.add_qubit("q")
        circuit.measure(q)
        with pytest.raises(CircuitError):
            circuit.inverse()
