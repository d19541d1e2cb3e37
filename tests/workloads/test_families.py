"""Circuit families and QASM ingest: registry names, params, determinism."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.circuits.random_circuits import _ONE_QUBIT_GATES, _TWO_QUBIT_GATES
from repro.errors import CircuitError
from repro.pipeline import CIRCUITS
from repro.pipeline.circuits import parse_circuit_name, resolve_circuit
from repro.pipeline.registry import RegistryError
from repro.runner import ExperimentSpec
from repro.workloads import (
    BUNDLED_SUITE,
    ingest_qasm_dir,
    ingest_qasm_file,
    layered_random_circuit,
)
from repro.workloads.qasm_ingest import register_bundled_suite

BELL_QASM = "QUBIT a,0\nQUBIT b,0\nH a\nC-X a,b\n"


def _gates(circuit) -> "list[str]":
    return [str(instruction) for instruction in circuit.instructions]


def _operand_slots(circuit) -> int:
    return sum(instruction.arity for instruction in circuit.instructions)


@pytest.fixture
def ingested():
    """Names a test ingests; unregistered again so the registry stays clean."""
    names: "list[str]" = []
    yield names
    for name in names:
        if name in CIRCUITS:
            CIRCUITS.unregister(name)


class TestLayeredRandom:
    def test_width_and_depth_knobs(self):
        circuit = layered_random_circuit(6, 4, seed=1)
        assert len(circuit.qubits) == 6
        assert len(circuit.instructions) >= 4  # at least one gate per layer

    def test_deterministic_per_seed(self):
        a = layered_random_circuit(6, 6, seed=3)
        b = layered_random_circuit(6, 6, seed=3)
        assert [str(i) for i in a.instructions] == [str(i) for i in b.instructions]
        c = layered_random_circuit(6, 6, seed=4)
        assert [str(i) for i in a.instructions] != [str(i) for i in c.instructions]

    def test_locality_bounds_operand_distance(self):
        circuit = layered_random_circuit(10, 20, locality=2, seed=0)
        order = {qubit.name: index for index, qubit in enumerate(circuit.qubits)}
        two_qubit = [i for i in circuit.instructions if i.is_two_qubit]
        assert two_qubit  # the family is two-qubit heavy by default
        for instruction in two_qubit:
            a, b = instruction.qubit_names
            assert abs(order[a] - order[b]) <= 2

    def test_rejects_bad_parameters(self):
        with pytest.raises(CircuitError, match="at least 2"):
            layered_random_circuit(1, 4)
        with pytest.raises(CircuitError, match="fill"):
            layered_random_circuit(4, 4, fill=0.0)

    @pytest.mark.parametrize(
        "parameter, value",
        [
            ("depth", 0),
            ("locality", -1),
            ("fill", 1.5),
            ("two_qubit_fraction", -0.1),
            ("two_qubit_fraction", 1.1),
        ],
    )
    def test_each_guard_names_its_parameter(self, parameter, value):
        kwargs = {"num_qubits": 4, "depth": 4, parameter: value}
        with pytest.raises(CircuitError, match=parameter):
            layered_random_circuit(**kwargs)

    def test_zero_two_qubit_fraction_gives_only_single_qubit_gates(self):
        circuit = layered_random_circuit(8, 5, fill=0.5, two_qubit_fraction=0.0)
        assert circuit.num_two_qubit_gates == 0
        assert len(circuit.instructions) == 4 * 5  # four active qubits a layer

    def test_full_two_qubit_fraction_pairs_every_active_qubit(self):
        circuit = layered_random_circuit(8, 5, fill=0.5, two_qubit_fraction=1.0)
        assert circuit.num_single_qubit_gates == 0
        assert circuit.num_two_qubit_gates == 2 * 5  # two pairs a layer

    def test_full_fill_touches_every_qubit_in_every_layer(self):
        circuit = layered_random_circuit(7, 6, fill=1.0, seed=2)
        assert _operand_slots(circuit) == 7 * 6

    def test_sparse_fill_still_touches_two_qubits_per_layer(self):
        circuit = layered_random_circuit(8, 6, fill=0.1, seed=2)
        assert _operand_slots(circuit) == 2 * 6

    def test_gates_come_from_the_random_gate_sets(self):
        circuit = layered_random_circuit(6, 10, seed=5)
        allowed = set(_ONE_QUBIT_GATES) | set(_TWO_QUBIT_GATES)
        assert {instruction.gate.name for instruction in circuit.instructions} <= allowed
        assert all(qubit.initial_value == 0 for qubit in circuit.qubits)

    def test_default_name_records_the_parameters(self):
        assert layered_random_circuit(6, 4, locality=2, seed=1).name == (
            "random-layered_6q_4d_l2_s1"
        )
        assert layered_random_circuit(6, 4, name="mine").name == "mine"

    def test_locality_spanning_the_width_is_all_to_all(self):
        unlimited = layered_random_circuit(7, 6, locality=0, seed=2)
        spanning = layered_random_circuit(7, 6, locality=6, seed=2)
        assert _gates(spanning) == _gates(unlimited)


class TestRegisteredFamilies:
    def test_random_local_is_layered_with_locality_one(self):
        local = resolve_circuit("random-local:q=6:d=5:seed=2")
        layered = layered_random_circuit(6, 5, locality=1, seed=2)
        assert _gates(local) == _gates(layered)

    def test_random_local_fixes_its_locality(self):
        with pytest.raises(CircuitError, match="rejected parameters"):
            resolve_circuit("random-local:l=3")

    def test_bare_name_builds_the_default_circuit(self):
        assert _gates(resolve_circuit("random-layered")) == _gates(
            layered_random_circuit()
        )

    def test_seed_in_the_name_selects_the_circuit(self):
        names = [f"random-layered:q=4:d=3:seed={seed}" for seed in range(5)]
        circuits = [_gates(resolve_circuit(name)) for name in names]
        assert len({tuple(gates) for gates in circuits}) == len(names)
        assert _gates(resolve_circuit(names[0])) == circuits[0]

    def test_seeded_names_are_distinct_jobs(self):
        # The service deduplicates on the cache key; distinct seeds in the
        # name must therefore be distinct jobs.
        keys = {
            ExperimentSpec(f"random-layered:q=4:d=3:seed={seed}").cache_key()
            for seed in range(3)
        }
        assert len(keys) == 3

    def test_any_repro_import_registers_the_workload_circuits(self):
        # Service workers resolve these names in fresh processes that never
        # import repro.workloads themselves.
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )}
        code = (
            "from repro.pipeline.circuits import CIRCUITS\n"
            "print(' '.join(sorted(n for n in CIRCUITS.names()"
            " if n.startswith(('random-l', 'qasm/')))))"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=60, check=True,
        )
        assert completed.stdout.split() == [
            "qasm/adder4", "qasm/bell", "random-layered", "random-local",
        ]


class TestParameterisedNames:
    def test_aliases_parse_into_factory_kwargs(self):
        base, params = parse_circuit_name("random-layered:q=6:d=4:l=2")
        assert base == "random-layered"
        assert params == {"num_qubits": 6, "depth": 4, "locality": 2}

    def test_resolve_builds_the_parameterised_circuit(self):
        circuit = resolve_circuit("random-layered:q=5:d=3:seed=9")
        assert len(circuit.qubits) == 5

    def test_name_params_override_keyword_params(self):
        wide = resolve_circuit("random-layered:q=7", num_qubits=3)
        assert len(wide.qubits) == 7

    def test_unknown_parameter_is_a_circuit_error(self):
        with pytest.raises(CircuitError):
            resolve_circuit("random-layered:bogus_param=3")

    def test_bad_segment_is_a_circuit_error(self):
        with pytest.raises(CircuitError, match="key=value"):
            parse_circuit_name("random-layered:notakv")


class TestQasmIngest:
    def test_bundled_suite_is_registered(self):
        assert {"qasm/bell", "qasm/adder4"} <= set(BUNDLED_SUITE)
        assert set(BUNDLED_SUITE) <= set(CIRCUITS.names())

    def test_bundled_circuits_resolve(self):
        bell = resolve_circuit("qasm/bell")
        assert len(bell.qubits) == 2
        adder = resolve_circuit("qasm/adder4")
        assert len(adder.qubits) == 4
        assert len(adder.instructions) > len(bell.instructions)

    def test_ingest_registers_a_custom_file(self, tmp_path):
        path = tmp_path / "tiny.qasm"
        path.write_text(BELL_QASM)
        name = ingest_qasm_file(path)
        assert name == "qasm/tiny"
        assert len(resolve_circuit(name).instructions) == 2

    def test_ingested_names_reject_parameters(self):
        with pytest.raises(CircuitError):
            resolve_circuit("qasm/bell", num_qubits=4)

    def test_ingest_of_a_missing_file_is_a_circuit_error(self, tmp_path):
        with pytest.raises(CircuitError, match="no file"):
            ingest_qasm_file(tmp_path / "absent.qasm")

    def test_ingest_under_an_explicit_name(self, tmp_path, ingested):
        path = tmp_path / "pair.qasm"
        path.write_text(BELL_QASM)
        ingested.append(ingest_qasm_file(path, "suite-x/pair"))
        assert ingested == ["suite-x/pair"]
        assert len(resolve_circuit("suite-x/pair").qubits) == 2

    def test_ingest_refuses_a_taken_name(self, tmp_path, ingested):
        path = tmp_path / "pair.qasm"
        path.write_text(BELL_QASM)
        original = CIRCUITS.get("qasm/bell")
        with pytest.raises(RegistryError, match="already registered"):
            ingest_qasm_file(path, "qasm/bell")
        assert CIRCUITS.get("qasm/bell") is original

    def test_ingested_file_is_reparsed_on_every_build(self, tmp_path, ingested):
        path = tmp_path / "grows.qasm"
        path.write_text(BELL_QASM)
        ingested.append(ingest_qasm_file(path, "suite-x/grows"))
        assert len(resolve_circuit("suite-x/grows").instructions) == 2
        path.write_text(BELL_QASM + "T b\n")
        assert len(resolve_circuit("suite-x/grows").instructions) == 3

    def test_malformed_file_fails_at_resolution_not_ingest(self, tmp_path, ingested):
        path = tmp_path / "broken.qasm"
        path.write_text("QUBIT a,0\nFROB a\n")
        ingested.append(ingest_qasm_file(path, "suite-x/broken"))
        with pytest.raises(CircuitError, match="FROB"):
            resolve_circuit("suite-x/broken")

    def test_ingest_dir_registers_qasm_files_in_sorted_order(self, tmp_path, ingested):
        for stem in ("zz-last", "aa-first"):
            (tmp_path / f"{stem}.qasm").write_text(BELL_QASM)
        (tmp_path / "notes.txt").write_text("not a circuit")
        names = ingest_qasm_dir(tmp_path)
        ingested.extend(names)
        assert names == ("qasm/aa-first", "qasm/zz-last")

    def test_ingest_dir_of_a_missing_directory_is_a_circuit_error(self, tmp_path):
        with pytest.raises(CircuitError, match="no directory"):
            ingest_qasm_dir(tmp_path / "absent")

    def test_bundled_suite_registration_is_idempotent(self):
        factories = [CIRCUITS.get(name) for name in BUNDLED_SUITE]
        assert register_bundled_suite() == BUNDLED_SUITE
        assert [CIRCUITS.get(name) for name in BUNDLED_SUITE] == factories

    @pytest.mark.parametrize("name", BUNDLED_SUITE)
    def test_bundled_circuit_has_no_measurement(self, name):
        # MVFB placement uncomputes the circuit; a measurement cannot be.
        circuit = resolve_circuit(name)
        assert not any(instruction.is_measurement for instruction in circuit.instructions)

    @pytest.mark.parametrize("name", BUNDLED_SUITE)
    def test_bundled_circuit_maps_by_name(self, name):
        result = repro.map_circuit(name, fabric="small", placer="center")
        assert result.latency > 0
