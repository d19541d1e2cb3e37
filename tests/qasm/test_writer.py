"""Tests for the QASM writer and parse/write round trips."""

from repro.circuits.circuit import QuantumCircuit
from repro.qasm.parser import parse_qasm
from repro.qasm.writer import write_qasm


class TestWriteQasm:
    def test_declarations_preserved(self, bell_circuit):
        text = write_qasm(bell_circuit)
        assert "QUBIT a,0" in text
        assert "QUBIT b,0" in text

    def test_gates_in_order(self, bell_circuit):
        text = write_qasm(bell_circuit)
        assert text.index("H a") < text.index("C-X a,b")

    def test_header_optional(self, bell_circuit):
        with_header = write_qasm(bell_circuit, header=True)
        without = write_qasm(bell_circuit, header=False)
        assert with_header.startswith("# bell")
        assert not without.startswith("#")

    def test_measurement_serialised(self):
        circuit = QuantumCircuit("m")
        q = circuit.add_qubit("q")
        circuit.measure(q)
        assert "MEASURE q" in write_qasm(circuit)


class TestRoundTrip:
    def test_paper_circuit_round_trip(self, paper_circuit):
        text = write_qasm(paper_circuit)
        reparsed = parse_qasm(text, name=paper_circuit.name)
        assert reparsed == paper_circuit

    def test_round_trip_preserves_initial_values(self):
        circuit = QuantumCircuit("init")
        circuit.add_qubit("a", 0)
        circuit.add_qubit("b", 1)
        circuit.add_qubit("c")
        circuit.h("a")
        reparsed = parse_qasm(write_qasm(circuit))
        assert [q.initial_value for q in reparsed.qubits] == [0, 1, None]
