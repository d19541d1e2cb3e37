"""Circuit names: plain and parameterised names, aliases, resolution."""

from __future__ import annotations

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.errors import CircuitError
from repro.pipeline.circuits import (
    PARAM_ALIASES,
    is_circuit_name,
    parse_circuit_name,
    resolve_circuit,
)


class TestParseCircuitName:
    @pytest.mark.parametrize("name", ["ghz", "[[5,1,3]]", "qasm/bell"])
    def test_plain_name_has_no_params(self, name):
        assert parse_circuit_name(name) == (name, {})

    @pytest.mark.parametrize("alias, keyword", sorted(PARAM_ALIASES.items()))
    def test_alias_expands_to_the_factory_keyword(self, alias, keyword):
        assert parse_circuit_name(f"random:{alias}=3") == ("random", {keyword: 3})

    def test_factory_keyword_passes_through(self):
        assert parse_circuit_name("random:num_gates=10") == (
            "random", {"num_gates": 10}
        )

    @pytest.mark.parametrize(
        "text, value",
        [
            ("4", 4),
            ("-2", -2),
            ("0.25", 0.25),
            ("1e3", 1000.0),
            ("true", True),
            ("False", False),
            ("median", "median"),
        ],
    )
    def test_value_is_int_then_float_then_bool_then_string(self, text, value):
        _, params = parse_circuit_name(f"random:x={text}")
        assert params["x"] == value
        assert type(params["x"]) is type(value)

    def test_whitespace_around_keys_and_values_is_ignored(self):
        assert parse_circuit_name("random: q = 4 : x = median ") == (
            "random", {"num_qubits": 4, "x": "median"}
        )

    @pytest.mark.parametrize("name", ["nope:q=3", "C:/circuits/adder.qasm"])
    def test_unregistered_base_keeps_the_whole_name(self, name):
        # A QASM path may contain colons; it must never be split.
        assert parse_circuit_name(name) == (name, {})

    def test_empty_key_is_rejected(self):
        with pytest.raises(CircuitError, match="key=value"):
            parse_circuit_name("random:=3")


class TestIsCircuitName:
    @pytest.mark.parametrize(
        "name, expected",
        [
            ("ghz", True),
            ("random-layered:q=4", True),
            ("qasm/bell", True),
            ("nope:q=3", False),
            ("circuits/missing.qasm", False),
        ],
    )
    def test_registry_names_plain_or_parameterised(self, name, expected):
        assert is_circuit_name(name) is expected


class TestResolveCircuit:
    def test_live_circuit_is_returned_unchanged(self, bell_circuit):
        assert resolve_circuit(bell_circuit) is bell_circuit

    def test_unregistered_string_is_read_as_a_qasm_path(self, tmp_path):
        path = tmp_path / "pair.qasm"
        path.write_text("QUBIT a,0\nQUBIT b,0\nH a\nC-X a,b\n")
        circuit = resolve_circuit(str(path))
        assert isinstance(circuit, QuantumCircuit)
        assert [qubit.name for qubit in circuit.qubits] == ["a", "b"]

    def test_unknown_name_suggests_and_names_the_missing_path(self):
        with pytest.raises(CircuitError) as excinfo:
            resolve_circuit("ghzz")
        message = str(excinfo.value)
        assert "did you mean 'ghz'" in message
        assert "no QASM file exists at ghzz" in message

    def test_keyword_params_reach_the_factory(self):
        assert len(resolve_circuit("ghz", num_qubits=7).qubits) == 7

    def test_qecc_benchmark_takes_no_parameters(self):
        with pytest.raises(CircuitError, match="takes no parameters"):
            resolve_circuit("[[5,1,3]]", num_qubits=3)

    def test_factory_rejection_is_a_circuit_error(self):
        with pytest.raises(CircuitError, match="rejected parameters"):
            resolve_circuit("ghz:depth=3")


class TestScaledQecc:
    def test_distance_alias_selects_the_code(self):
        circuit = resolve_circuit("qecc-scaled:dist=9")
        assert circuit.name == "[[41,1,9]]"
        assert len(circuit.qubits) == 41

    def test_bare_name_is_distance_nine(self):
        assert resolve_circuit("qecc-scaled").name == "[[41,1,9]]"

    def test_even_distance_is_rejected(self):
        with pytest.raises(CircuitError, match="odd integer"):
            resolve_circuit("qecc-scaled:distance=4")
