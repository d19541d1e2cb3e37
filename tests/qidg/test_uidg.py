"""Tests for the uncompute graph (UIDG) and schedule reversal."""

import pytest

from repro.errors import CircuitError
from repro.qidg.analysis import critical_path_latency
from repro.qidg.graph import build_qidg
from repro.qidg.uidg import forward_to_backward_index, reverse_schedule


class TestBuildUidg:
    def test_same_size(self, paper_circuit):
        qidg = build_qidg(paper_circuit)
        uidg = build_qidg(qidg.circuit.inverse())
        assert uidg.num_nodes == qidg.num_nodes
        assert uidg.num_edges == qidg.num_edges

    def test_edges_are_reversed(self, bell_circuit):
        qidg = build_qidg(bell_circuit)
        uidg = build_qidg(qidg.circuit.inverse())
        # Forward: H(0) -> CX(1).  Backward circuit: CX(0) -> H(1).
        assert uidg.instruction(0).gate.name == "C-X"
        assert uidg.successors[0] == (1,)

    def test_critical_path_preserved(self, paper_circuit):
        # Gate delays are symmetric under inversion, so the ideal latency of
        # the uncompute circuit equals the forward one.
        qidg = build_qidg(paper_circuit)
        uidg = build_qidg(qidg.circuit.inverse())
        assert critical_path_latency(uidg) == critical_path_latency(qidg)


class TestIndexMapping:
    def test_forward_to_backward(self):
        assert forward_to_backward_index(10, 0) == 9
        assert forward_to_backward_index(10, 9) == 0
        assert forward_to_backward_index(10, 4) == 5

    def test_out_of_range(self):
        with pytest.raises(CircuitError):
            forward_to_backward_index(5, 5)


class TestReverseSchedule:
    def test_reverse_of_program_order(self):
        schedule = [0, 1, 2, 3]
        assert reverse_schedule(schedule, 4) == [0, 1, 2, 3]

    def test_reverse_of_permuted_schedule(self):
        schedule = [1, 0, 3, 2]
        # Reversed order, indices mirrored.
        assert reverse_schedule(schedule, 4) == [4 - 1 - i for i in reversed(schedule)]

    def test_is_topological_for_uidg(self, paper_circuit):
        qidg = build_qidg(paper_circuit)
        uidg = build_qidg(qidg.circuit.inverse())
        forward_order = qidg.topological_order()
        backward = reverse_schedule(forward_order, paper_circuit.num_instructions)
        assert uidg.is_valid_order(backward)

    def test_requires_permutation(self):
        with pytest.raises(CircuitError):
            reverse_schedule([0, 0, 1], 3)
