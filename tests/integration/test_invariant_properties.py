"""Property-based tests of the mapping invariants on random circuits.

For any (reversible) random circuit mapped onto a small fabric:

* the mapped latency is never below the QIDG critical path;
* the issue schedule is a topological order of the QIDG;
* every instruction finishes no later than the reported latency;
* the final placement is a valid placement of the circuit's qubits;
* per-instruction delays decompose exactly per Eq. 1.
"""

from hypothesis import given, settings, strategies as st

from repro.circuits.random_circuits import random_circuit
from repro.fabric.builder import FabricSpec, build_fabric
from repro.mapper.options import MapperOptions
from repro.mapper.qspr import QsprMapper
from repro.qidg.analysis import critical_path_latency
from repro.qidg.graph import build_qidg

_FABRIC = build_fabric(FabricSpec(name="prop", junction_rows=4, junction_cols=4))
_MAPPER = QsprMapper(MapperOptions(placer="center"))


@st.composite
def reversible_circuits(draw):
    num_qubits = draw(st.integers(min_value=2, max_value=8))
    num_gates = draw(st.integers(min_value=1, max_value=25))
    fraction = draw(st.sampled_from([0.3, 0.6, 0.9]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return random_circuit(num_qubits, num_gates, two_qubit_fraction=fraction, seed=seed)


@settings(max_examples=25, deadline=None)
@given(reversible_circuits())
def test_latency_lower_bound(circuit):
    result = _MAPPER.map(circuit, _FABRIC)
    assert result.latency + 1e-9 >= critical_path_latency(build_qidg(circuit))


@settings(max_examples=25, deadline=None)
@given(reversible_circuits())
def test_schedule_is_topological_and_complete(circuit):
    result = _MAPPER.map(circuit, _FABRIC)
    qidg = build_qidg(circuit)
    assert qidg.is_valid_order(result.schedule)


@settings(max_examples=25, deadline=None)
@given(reversible_circuits())
def test_records_and_placement_consistent(circuit):
    result = _MAPPER.map(circuit, _FABRIC)
    assert len(result.records) == circuit.num_instructions
    assert all(r.finish_time <= result.latency + 1e-9 for r in result.records.values())
    for record in result.records.values():
        assert record.finish_time >= record.issue_time
        assert record.issue_time + 1e-9 >= record.ready_time
        assert record.gate_start == record.issue_time + record.routing_delay
    result.final_placement.validate(circuit, _FABRIC)


@settings(max_examples=15, deadline=None)
@given(reversible_circuits())
def test_mapping_is_deterministic(circuit):
    first = _MAPPER.map(circuit, _FABRIC)
    second = _MAPPER.map(circuit, _FABRIC)
    assert first.latency == second.latency
    assert first.schedule == second.schedule
