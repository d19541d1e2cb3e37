"""Tests for the gate registry."""

import pytest

from repro.circuits.gates import (
    GATE_REGISTRY,
    canonical_name,
    get_gate,
    is_known_gate,
)
from repro.errors import CircuitError


class TestRegistry:
    def test_core_gates_present(self):
        for name in ("H", "X", "Y", "Z", "C-X", "C-Y", "C-Z", "MEASURE"):
            assert name in GATE_REGISTRY

    def test_arities(self):
        assert get_gate("H").arity == 1
        assert get_gate("C-X").arity == 2
        assert get_gate("SWAP").arity == 2

    def test_measurement_flag(self):
        assert get_gate("MEASURE").is_measurement
        assert not get_gate("H").is_measurement

    def test_aliases(self):
        assert canonical_name("cnot") == "C-X"
        assert canonical_name("CZ") == "C-Z"
        assert get_gate("cx").name == "C-X"

    def test_case_insensitive(self):
        assert get_gate("h").name == "H"

    def test_is_known_gate(self):
        assert is_known_gate("C-Y")
        assert is_known_gate("cnot")
        assert not is_known_gate("TOFFOLI")

    def test_unknown_gate_raises(self):
        with pytest.raises(CircuitError):
            get_gate("FROBNICATE")


class TestInverses:
    def test_self_inverse_gates(self):
        for name in ("H", "X", "Y", "Z", "C-X", "C-Y", "C-Z", "SWAP"):
            assert get_gate(name).inverse_name == name

    def test_s_and_sdag(self):
        assert get_gate("S").inverse_name == "SDAG"
        assert get_gate("SDAG").inverse_name == "S"

    def test_t_and_tdag(self):
        assert get_gate("T").inverse_name == "TDAG"
        assert get_gate("TDAG").inverse_name == "T"

    def test_inverse_is_involution(self):
        for spec in GATE_REGISTRY.values():
            if spec.is_measurement:
                continue
            assert get_gate(spec.inverse_name).inverse_name == spec.name

    def test_inverse_preserves_arity(self):
        for spec in GATE_REGISTRY.values():
            assert get_gate(spec.inverse_name).arity == spec.arity
