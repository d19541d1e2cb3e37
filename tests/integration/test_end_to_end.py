"""Integration tests: the full pipeline on the paper's workloads.

These tests exercise QASM -> circuit -> QIDG -> placement -> scheduling ->
routing -> simulation -> result, and check the cross-cutting invariants and
the headline claims of the paper (QSPR beats QUALE, MVFB beats Monte-Carlo
with the same budget, the ideal baseline is a lower bound).
"""

import pytest

import repro
from repro import (
    TECHNOLOGIES,
    ExperimentSpec,
    IdealBaseline,
    MapperOptions,
    QposMapper,
    QsprMapper,
    QualeMapper,
    parse_qasm,
    quale_fabric,
    small_fabric,
)
from repro.circuits.qecc import BENCHMARK_NAMES, QECC_BENCHMARKS, qecc_encoder
from repro.placement.center import CenterPlacer
from repro.runner.executor import map_spec
from repro.sim.engine import FabricSimulator
from repro.sim.microcode import CommandKind


@pytest.fixture(scope="module")
def fabric():
    return small_fabric(junction_rows=6, junction_cols=6)


class TestPublicApi:
    def test_package_level_flow(self, fabric):
        circuit = qecc_encoder("[[5,1,3]]")
        result = QsprMapper(MapperOptions(num_seeds=1)).map(circuit, fabric)
        assert result.latency >= IdealBaseline().latency(circuit)

    def test_qasm_text_to_result(self, fabric):
        source = "QUBIT a,0\nQUBIT b,0\nQUBIT c,0\nH a\nC-X a,b\nC-X b,c\n"
        circuit = parse_qasm(source, name="chain")
        result = QsprMapper(MapperOptions(placer="center")).map(circuit, fabric)
        assert result.circuit_name == "chain"
        assert len(result.records) == 3


def _simulate_center(technology):
    circuit, fabric = qecc_encoder("[[9,1,3]]"), quale_fabric()
    return FabricSimulator(circuit, fabric, technology).run(CenterPlacer(fabric).place(circuit))


class TestOneChannelCapacity:
    """The PMD is the one source of the channel capacity, whichever door maps.

    ``[[9,1,3]]`` center-placed on the quale fabric takes 1310 µs on the
    paper's capacity-2 channels and 1550 µs on the ``cap-1`` PMD's.
    """

    @pytest.mark.parametrize(
        "door",
        [
            lambda cap_1: _simulate_center(cap_1),
            lambda cap_1: QsprMapper(MapperOptions(technology=cap_1, placer="center")).map(
                qecc_encoder("[[9,1,3]]"), quale_fabric()
            ),
            lambda cap_1: repro.map_circuit(
                "[[9,1,3]]", "quale", placer="center", technology="cap-1"
            ),
            lambda cap_1: map_spec(ExperimentSpec("[[9,1,3]]", placer="center", channel_capacity=1)),
        ],
        ids=["simulator", "mapper-options", "map-circuit", "spec-capacity"],
    )
    def test_every_door_maps_the_cap_1_pmd_at_capacity_one(self, door):
        assert door(TECHNOLOGIES.get("cap-1")).latency == 1550.0

    def test_the_paper_pmd_maps_at_capacity_two(self):
        assert _simulate_center(TECHNOLOGIES.get("paper")).latency == 1310.0


class TestPaperClaims:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES[:3])
    def test_qspr_beats_quale(self, name):
        fabric = quale_fabric()
        circuit = qecc_encoder(name)
        quale = QualeMapper().map(circuit, fabric)
        qspr = QsprMapper(MapperOptions(num_seeds=2)).map(circuit, fabric)
        assert qspr.latency < quale.latency

    def test_improvement_grows_with_circuit_size(self):
        fabric = quale_fabric()
        small = qecc_encoder("[[5,1,3]]")
        large = qecc_encoder("[[19,1,7]]")
        improvements = []
        for circuit in (small, large):
            quale = QualeMapper().map(circuit, fabric)
            qspr = QsprMapper(MapperOptions(num_seeds=2)).map(circuit, fabric)
            improvements.append(qspr.improvement_over(quale))
        assert improvements[1] > improvements[0]

    def test_routing_overhead_grows_with_circuit_size(self):
        fabric = quale_fabric()
        overheads = []
        for name in ("[[5,1,3]]", "[[19,1,7]]"):
            result = QsprMapper(MapperOptions(num_seeds=1)).map(qecc_encoder(name), fabric)
            overheads.append(result.overhead_vs_ideal)
        assert overheads[1] > overheads[0]

    def test_baseline_is_lower_bound_for_all_mappers(self, fabric):
        circuit = qecc_encoder("[[7,1,3]]")
        ideal = IdealBaseline().latency(circuit)
        for mapper in (
            QsprMapper(MapperOptions(num_seeds=1)),
            QualeMapper(),
            QposMapper(),
        ):
            assert mapper.map(circuit, fabric).latency >= ideal

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_calibrated_baselines_match_table2(self, name):
        assert IdealBaseline().latency(qecc_encoder(name)) == pytest.approx(
            QECC_BENCHMARKS[name].paper_baseline_us
        )


class TestTraceConsistency:
    def test_gate_commands_do_not_overlap_per_qubit(self, fabric):
        circuit = qecc_encoder("[[7,1,3]]")
        result = QsprMapper(MapperOptions(num_seeds=1)).map(circuit, fabric)
        for qubit in (q.name for q in circuit.qubits):
            gates = [
                c for c in result.trace.commands_for_qubit(qubit) if c.kind is CommandKind.GATE
            ]
            for earlier, later in zip(gates, gates[1:]):
                assert later.start >= earlier.end - 1e-9

    def test_every_instruction_has_a_gate_command(self, fabric):
        circuit = qecc_encoder("[[5,1,3]]")
        result = QsprMapper(MapperOptions(num_seeds=1)).map(circuit, fabric)
        indices = {
            c.instruction_index for c in result.trace if c.kind is CommandKind.GATE
        }
        assert indices == set(range(circuit.num_instructions))

    def test_moves_consistent_with_records(self, fabric):
        circuit = qecc_encoder("[[5,1,3]]")
        result = QsprMapper(MapperOptions(placer="center")).map(circuit, fabric)
        move_time = sum(c.duration for c in result.trace if c.kind is CommandKind.MOVE)
        assert move_time == pytest.approx(result.total_moves * 1.0)
        turn_time = sum(c.duration for c in result.trace if c.kind is CommandKind.TURN)
        assert turn_time == pytest.approx(result.total_turns * 10.0)
