"""Tests for QIDG analyses: critical path, levels and dependent counts."""

import pytest

from repro.circuits.builders import ghz_circuit, ripple_chain_circuit
from repro.circuits.circuit import QuantumCircuit
from repro.qidg.analysis import (
    alap_levels,
    asap_levels,
    critical_path_latency,
    descendant_counts,
    longest_path_to_sink,
)
from repro.qidg.graph import build_qidg
from repro.scheduling.policies import QsprPolicy
from repro.technology import PAPER_TECHNOLOGY


class TestCriticalPath:
    def test_bell(self, bell_circuit):
        qidg = build_qidg(bell_circuit)
        assert critical_path_latency(qidg) == pytest.approx(110.0)

    def test_paper_five_one_three(self, paper_circuit):
        # With the 8 two-qubit gates printed in Figure 3 the chain is
        # H -> 6 controlled gates = 10 + 600.
        qidg = build_qidg(paper_circuit)
        assert critical_path_latency(qidg) == pytest.approx(610.0)

    def test_ghz_is_fully_sequential(self):
        qidg = build_qidg(ghz_circuit(6))
        assert critical_path_latency(qidg) == pytest.approx(10 + 5 * 100)

    def test_independent_gates(self):
        circuit = QuantumCircuit()
        a, b = circuit.add_qubits(2)
        circuit.h(a)
        circuit.h(b)
        qidg = build_qidg(circuit)
        assert critical_path_latency(qidg) == pytest.approx(10.0)

    def test_respects_technology(self, bell_circuit):
        qidg = build_qidg(bell_circuit)
        slow = PAPER_TECHNOLOGY.__class__(two_qubit_gate_delay=500.0)
        assert critical_path_latency(qidg, slow) == pytest.approx(510.0)


class TestPathMaps:
    def test_to_sink_at_source_equals_critical_path(self, ghz5):
        qidg = build_qidg(ghz5)
        to_sink = longest_path_to_sink(qidg)
        assert max(to_sink.values()) == critical_path_latency(qidg)

    def test_from_source_at_sink_equals_critical_path(self, ghz5):
        # The longest path from a source to the forward sink is the longest
        # path from its mirror, instruction 0 of the UIDG, to a UIDG sink.
        qidg = build_qidg(ghz5)
        sinks = [node for node, succs in enumerate(qidg.successors) if not succs]
        assert sinks == [len(qidg) - 1]
        from_source = longest_path_to_sink(build_qidg(qidg.circuit.inverse()))
        assert from_source[0] == critical_path_latency(qidg)

    def test_sink_value_is_own_delay(self, bell_circuit):
        qidg = build_qidg(bell_circuit)
        to_sink = longest_path_to_sink(qidg)
        assert to_sink[1] == pytest.approx(100.0)


class TestLevels:
    def test_asap_levels_chain(self):
        qidg = build_qidg(ripple_chain_circuit(4))
        levels = asap_levels(qidg)
        assert levels[0] == 0
        assert max(levels.values()) == len(levels) - 1

    def test_alap_levels_never_smaller_than_asap(self, paper_circuit):
        qidg = build_qidg(paper_circuit)
        asap = asap_levels(qidg)
        alap = alap_levels(qidg)
        assert all(alap[n] >= asap[n] for n in asap)

    def test_slack_zero_on_critical_chain(self):
        qidg = build_qidg(ripple_chain_circuit(5))
        assert alap_levels(qidg) == asap_levels(qidg)

    def test_dependency_depth(self, ghz5):
        qidg = build_qidg(ghz5)
        assert max(asap_levels(qidg).values()) + 1 == 5


class TestPriorities:
    def test_descendant_counts_chain(self):
        qidg = build_qidg(ripple_chain_circuit(4))
        counts = descendant_counts(qidg)
        assert counts[0] == len(counts) - 1
        assert counts[max(counts)] == 0

    def test_qspr_priority_decreases_along_chain(self, ghz5):
        qidg = build_qidg(ghz5)
        priorities = QsprPolicy().priorities(qidg)
        order = sorted(priorities, key=lambda n: -priorities[n])
        assert order[0] == 0  # the Hadamard heads the chain

    def test_priority_weights(self, bell_circuit):
        # The two terms of the Section III priority, read one at a time.
        qidg = build_qidg(bell_circuit)
        assert longest_path_to_sink(qidg)[0] == pytest.approx(110.0)
        assert descendant_counts(qidg)[0] == 1
