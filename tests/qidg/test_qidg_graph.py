"""Tests for QIDG construction."""

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.errors import CircuitError
from repro.qidg.graph import build_qidg


class TestBuildQidg:
    def test_node_per_instruction(self, paper_circuit):
        qidg = build_qidg(paper_circuit)
        assert qidg.num_nodes == paper_circuit.num_instructions

    def test_empty_circuit_rejected(self):
        with pytest.raises(CircuitError):
            build_qidg(QuantumCircuit())

    def test_dependency_on_shared_qubit(self, bell_circuit):
        qidg = build_qidg(bell_circuit)
        assert qidg.predecessors[1] == (0,)
        assert qidg.successors[0] == (1,)

    def test_only_closest_predecessor_kept(self):
        circuit = QuantumCircuit()
        q = circuit.add_qubit("q")
        circuit.h(q)
        circuit.x(q)
        circuit.z(q)
        qidg = build_qidg(circuit)
        # Transitive reduction: 0->1->2 but no 0->2 edge.
        assert qidg.successors[0] == (1,)
        assert qidg.predecessors[2] == (1,)
        assert qidg.num_edges == 2

    def test_independent_instructions_have_no_edges(self):
        circuit = QuantumCircuit()
        a, b = circuit.add_qubits(2)
        circuit.h(a)
        circuit.h(b)
        qidg = build_qidg(circuit)
        assert qidg.num_edges == 0
        assert qidg.predecessors == ((), ())
        assert qidg.successors == ((), ())

    def test_two_qubit_gate_joins_chains(self, paper_circuit):
        qidg = build_qidg(paper_circuit)
        # Instruction 4 (C-X q3,q2) depends on H q2 (index 2) only.
        cx = next(i for i in paper_circuit.instructions if i.gate.name == "C-X")
        assert qidg.predecessors[cx.index] == (2,)

    def test_instruction_lookup(self, paper_circuit):
        qidg = build_qidg(paper_circuit)
        assert qidg.instruction(0).gate.name == "H"
        with pytest.raises(CircuitError):
            qidg.instruction(999)

    def test_instruction_lookup_out_of_range(self, paper_circuit):
        qidg = build_qidg(paper_circuit)
        # -1 names no instruction: it must not wrap around to the last one.
        for index in (-1, len(qidg)):
            with pytest.raises(CircuitError):
                qidg.instruction(index)

    def test_shared_last_use_gives_one_edge(self):
        circuit = QuantumCircuit()
        a, b = circuit.add_qubits(2)
        circuit.cx(a, b)
        circuit.cz(a, b)
        qidg = build_qidg(circuit)
        assert qidg.predecessors == ((), (0,))
        assert qidg.successors == ((1,), ())
        assert qidg.num_edges == 1

    def test_program_order_is_topological(self, paper_circuit):
        qidg = build_qidg(paper_circuit)
        assert qidg.is_valid_order(qidg.topological_order())

    def test_invalid_order_detected(self, paper_circuit):
        qidg = build_qidg(paper_circuit)
        order = qidg.topological_order()
        order[0], order[-1] = order[-1], order[0]
        assert not qidg.is_valid_order(order)

    def test_order_must_be_permutation(self, bell_circuit):
        qidg = build_qidg(bell_circuit)
        assert not qidg.is_valid_order([0])
        assert not qidg.is_valid_order([0, 0])

    def test_len_and_repr(self, bell_circuit):
        qidg = build_qidg(bell_circuit)
        assert len(qidg) == 2
        assert "QIDG" in repr(qidg)
