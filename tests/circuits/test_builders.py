"""Tests for the convenience circuit builders and random circuits."""

import pytest

from repro.circuits.builders import ghz_circuit, qft_like_circuit, ripple_chain_circuit
from repro.circuits.random_circuits import random_circuit
from repro.errors import CircuitError


class TestGhz:
    def test_structure(self):
        circuit = ghz_circuit(4)
        assert circuit.num_qubits == 4
        assert circuit.num_single_qubit_gates == 1
        assert circuit.num_two_qubit_gates == 3

    def test_hub_is_control_everywhere(self):
        circuit = ghz_circuit(5)
        for instruction in circuit.instructions[1:]:
            assert instruction.control.name == "q0"

    def test_too_small(self):
        with pytest.raises(CircuitError):
            ghz_circuit(1)


class TestRippleChain:
    def test_gate_count(self):
        circuit = ripple_chain_circuit(6, rounds=2)
        assert circuit.num_two_qubit_gates == 10

    def test_sequential_dependencies(self):
        circuit = ripple_chain_circuit(4)
        names = [i.qubit_names for i in circuit.instructions if i.is_two_qubit]
        assert names == [("q0", "q1"), ("q1", "q2"), ("q2", "q3")]

    def test_invalid_rounds(self):
        with pytest.raises(CircuitError):
            ripple_chain_circuit(4, rounds=0)


class TestQftLike:
    def test_gate_count(self):
        n = 5
        circuit = qft_like_circuit(n)
        assert circuit.num_single_qubit_gates == n
        assert circuit.num_two_qubit_gates == n * (n - 1) // 2

    def test_all_pairs_interact(self):
        circuit = qft_like_circuit(4)
        pairs = {frozenset(i.qubit_names) for i in circuit if i.is_two_qubit}
        assert len(pairs) == 6

    def test_too_small(self):
        with pytest.raises(CircuitError):
            qft_like_circuit(1)


class TestRandomCircuit:
    def test_deterministic_for_seed(self):
        a = random_circuit(5, 20, seed=7)
        b = random_circuit(5, 20, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        a = random_circuit(5, 20, seed=1)
        b = random_circuit(5, 20, seed=2)
        assert a != b

    def test_gate_count_exact(self):
        assert random_circuit(4, 33, seed=0).num_instructions == 33

    def test_two_qubit_fraction_extremes(self):
        only_single = random_circuit(3, 20, two_qubit_fraction=0.0, seed=0)
        assert only_single.num_two_qubit_gates == 0
        only_double = random_circuit(3, 20, two_qubit_fraction=1.0, seed=0)
        assert only_double.num_two_qubit_gates == 20

    def test_invalid_parameters(self):
        with pytest.raises(CircuitError):
            random_circuit(0, 5)
        with pytest.raises(CircuitError):
            random_circuit(3, -1)
        with pytest.raises(CircuitError):
            random_circuit(3, 5, two_qubit_fraction=1.5)
        with pytest.raises(CircuitError):
            random_circuit(1, 5, two_qubit_fraction=0.5)
