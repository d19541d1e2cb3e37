"""Tests for the QECC benchmark circuits.

The key calibration property: the ideal-baseline latency (QIDG critical path
under the paper's technology parameters) of each reconstructed benchmark must
equal the baseline column of the paper's Table 2.
"""

import pytest

from repro.circuits.qecc import (
    BENCHMARK_NAMES,
    QECC_BENCHMARKS,
    calibrated_encoder,
    five_one_three_paper_circuit,
    qecc_encoder,
)
from repro.errors import CircuitError
from repro.mapper.ideal import IdealBaseline


class TestBenchmarkMetadata:
    def test_six_benchmarks(self):
        assert len(BENCHMARK_NAMES) == 6

    def test_paper_order(self):
        assert BENCHMARK_NAMES[0] == "[[5,1,3]]"
        assert BENCHMARK_NAMES[-1] == "[[23,1,7]]"

    def test_paper_numbers_recorded(self):
        bench = QECC_BENCHMARKS["[[14,8,3]]"]
        assert bench.paper_baseline_us == 2500
        assert bench.paper_quale_us == 7511
        assert bench.paper_qspr_us == 3390

    def test_ancilla_counts(self):
        assert QECC_BENCHMARKS["[[5,1,3]]"].num_ancillas == 4
        assert QECC_BENCHMARKS["[[14,8,3]]"].num_ancillas == 6


class TestPaperCircuit:
    def test_qubit_and_gate_counts(self):
        circuit = five_one_three_paper_circuit()
        assert circuit.num_qubits == 5
        assert circuit.num_single_qubit_gates == 4
        assert circuit.num_two_qubit_gates == 8

    def test_data_qubit_has_no_initial_value(self):
        circuit = five_one_three_paper_circuit()
        assert circuit.qubit("q3").initial_value is None
        assert circuit.qubit("q0").initial_value == 0


class TestCalibration:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_ideal_baseline_matches_paper(self, name):
        circuit = qecc_encoder(name)
        measured = IdealBaseline().latency(circuit)
        assert measured == pytest.approx(QECC_BENCHMARKS[name].paper_baseline_us)

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_qubit_counts_match_code(self, name):
        circuit = qecc_encoder(name)
        assert circuit.num_qubits == QECC_BENCHMARKS[name].n

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_ancillas_are_hadamarded(self, name):
        circuit = qecc_encoder(name)
        bench = QECC_BENCHMARKS[name]
        hadamards = [i for i in circuit.instructions if i.gate.name == "H"]
        assert len(hadamards) == bench.num_ancillas

    def test_unknown_benchmark(self):
        with pytest.raises(CircuitError):
            qecc_encoder("[[99,1,3]]")

    def test_deterministic(self):
        assert qecc_encoder("[[9,1,3]]") == qecc_encoder("[[9,1,3]]")


class TestCalibratedEncoder:
    def test_chain_length_controls_critical_path(self):
        circuit = calibrated_encoder("test", 6, 1, 7, layer_width=2)
        assert IdealBaseline().latency(circuit) == pytest.approx(10 + 7 * 100)

    def test_without_leading_hadamard(self):
        circuit = calibrated_encoder("test", 8, 2, 4, leading_hadamard=False, layer_width=2)
        assert IdealBaseline().latency(circuit) == pytest.approx(4 * 100)

    def test_layer_width_bounds(self):
        with pytest.raises(CircuitError):
            calibrated_encoder("bad", 5, 1, 3, layer_width=3)

    def test_invalid_code_parameters(self):
        with pytest.raises(CircuitError):
            calibrated_encoder("bad", 3, 3, 2)

    def test_non_hadamard_spine_needs_two_data_qubits(self):
        with pytest.raises(CircuitError):
            calibrated_encoder("bad", 5, 1, 3, leading_hadamard=False, layer_width=2)
