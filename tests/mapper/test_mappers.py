"""Tests for the end-to-end mappers: options, results, QSPR and the baselines."""

from dataclasses import replace

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.qecc import qecc_encoder
from repro.errors import MappingError
from repro.mapper.ideal import IdealBaseline
from repro.mapper.options import MapperOptions
from repro.mapper.qpos import QposMapper, qpos_options
from repro.mapper.qspr import QsprMapper
from repro.mapper.quale import QualeMapper, quale_options
from repro.pipeline import TECHNOLOGIES
from repro.routing.router import MeetingPoint


class TestMapperOptions:
    def test_defaults_are_qspr(self):
        options = MapperOptions()
        assert options.scheduler == "qspr"
        assert options.turn_aware_routing
        assert options.meeting_point is MeetingPoint.MEDIAN
        assert options.technology.channel_capacity == 2
        assert options.placer == "mvfb"

    def test_invalid_options(self):
        with pytest.raises(MappingError):
            MapperOptions(num_seeds=0)
        with pytest.raises(MappingError):
            MapperOptions(num_placements=0)
        with pytest.raises(MappingError, match="num_seeds must be an integer"):
            MapperOptions(num_seeds=True)

    def test_describe_mentions_key_features(self):
        text = MapperOptions().describe()
        assert "mvfb" in text
        assert "capacity=2" in text

    def test_quale_preset(self):
        options = quale_options()
        assert options.scheduler == "quale-alap"
        assert options.barrier_scheduling
        assert not options.turn_aware_routing
        assert options.technology.channel_capacity == 1
        assert options.placer == "center"

    def test_qpos_preset(self):
        options = qpos_options()
        assert options.scheduler == "qpos-dependents"
        assert options.meeting_point is MeetingPoint.DESTINATION
        assert qpos_options(path_delay_priority=True).scheduler == "qpos-path-delay"

    @pytest.mark.parametrize("preset", [quale_options, qpos_options])
    def test_presets_run_their_pmd_on_capacity_one_channels(self, preset):
        slow = TECHNOLOGIES.get("slow-2q")
        assert preset(slow).technology == replace(slow, channel_capacity=1)
        assert preset().technology == TECHNOLOGIES.get("cap-1")


class TestIdealBaseline:
    def test_paper_circuit(self, paper_circuit):
        assert IdealBaseline().latency(paper_circuit) == pytest.approx(610.0)

    def test_calibrated_benchmark(self, calibrated_513):
        assert IdealBaseline().latency(calibrated_513) == pytest.approx(510.0)


class TestQsprMapper:
    def test_center_placer_flow(self, calibrated_513, small_fabric_4x4):
        result = QsprMapper(MapperOptions(placer="center")).map(
            calibrated_513, small_fabric_4x4
        )
        assert result.latency >= result.ideal_latency
        assert result.placement_runs == 1
        assert result.mapper_name == "QSPR"

    def test_mvfb_flow(self, calibrated_513, small_fabric_4x4):
        result = QsprMapper(MapperOptions(num_seeds=2)).map(calibrated_513, small_fabric_4x4)
        assert result.latency >= result.ideal_latency
        assert result.placement_runs >= 2
        assert result.direction in ("forward", "backward")
        result.initial_placement.validate(calibrated_513, small_fabric_4x4)
        result.final_placement.validate(calibrated_513, small_fabric_4x4)

    def test_mvfb_beats_or_matches_center(self, calibrated_513, small_fabric_4x4):
        center = QsprMapper(MapperOptions(placer="center")).map(
            calibrated_513, small_fabric_4x4
        )
        mvfb = QsprMapper(MapperOptions(num_seeds=3)).map(calibrated_513, small_fabric_4x4)
        assert mvfb.latency <= center.latency

    def test_monte_carlo_placements_default_to_num_seeds(
        self, calibrated_513, small_fabric_4x4
    ):
        result = QsprMapper(MapperOptions(placer="monte-carlo", num_seeds=3)).map(
            calibrated_513, small_fabric_4x4
        )
        assert result.placement_runs == 3
        assert "m'=3" in result.options.describe()

    def test_monte_carlo_flow(self, calibrated_513, small_fabric_4x4):
        result = QsprMapper(
            MapperOptions(placer="monte-carlo", num_placements=4)
        ).map(calibrated_513, small_fabric_4x4)
        assert result.placement_runs == 4

    def test_empty_circuit_rejected(self, small_fabric_4x4):
        with pytest.raises(MappingError):
            QsprMapper().map(QuantumCircuit(), small_fabric_4x4)

    def test_mvfb_rejects_measurements(self, small_fabric_4x4):
        circuit = QuantumCircuit()
        q = circuit.add_qubit("q", 0)
        circuit.h(q)
        circuit.measure(q)
        with pytest.raises(MappingError):
            QsprMapper(MapperOptions(num_seeds=1)).map(circuit, small_fabric_4x4)

    def test_measured_circuit_maps_with_center_placer(self, small_fabric_4x4):
        circuit = QuantumCircuit()
        a = circuit.add_qubit("a", 0)
        b = circuit.add_qubit("b", 0)
        circuit.h(a)
        circuit.cx(a, b)
        circuit.measure(a)
        circuit.measure(b)
        result = QsprMapper(MapperOptions(placer="center")).map(circuit, small_fabric_4x4)
        assert len(result.records) == 4

    def test_schedule_covers_all_instructions(self, calibrated_513, small_fabric_4x4):
        result = QsprMapper(MapperOptions(num_seeds=1)).map(calibrated_513, small_fabric_4x4)
        assert sorted(result.schedule) == list(range(calibrated_513.num_instructions))

    def test_deterministic_for_seed(self, calibrated_513, small_fabric_4x4):
        a = QsprMapper(MapperOptions(num_seeds=2, random_seed=5)).map(
            calibrated_513, small_fabric_4x4
        )
        b = QsprMapper(MapperOptions(num_seeds=2, random_seed=5)).map(
            calibrated_513, small_fabric_4x4
        )
        assert a.latency == b.latency

    def test_summary_mentions_latency(self, calibrated_513, small_fabric_4x4):
        result = QsprMapper(MapperOptions(placer="center")).map(
            calibrated_513, small_fabric_4x4
        )
        assert "latency" in result.summary()
        assert result.circuit_name in result.summary()


class TestBaselineMappers:
    def test_quale_runs(self, calibrated_513, small_fabric_4x4):
        result = QualeMapper().map(calibrated_513, small_fabric_4x4)
        assert result.mapper_name == "QUALE"
        assert result.latency >= result.ideal_latency

    def test_qpos_runs(self, calibrated_513, small_fabric_4x4):
        result = QposMapper().map(calibrated_513, small_fabric_4x4)
        assert result.mapper_name == "QPOS"
        assert result.latency >= result.ideal_latency

    def test_qspr_beats_quale_on_benchmark(self, small_fabric_4x4):
        circuit = qecc_encoder("[[9,1,3]]")
        quale = QualeMapper().map(circuit, small_fabric_4x4)
        qspr = QsprMapper(MapperOptions(num_seeds=2)).map(circuit, small_fabric_4x4)
        assert qspr.latency < quale.latency
        assert qspr.improvement_over(quale) > 0

    def test_improvement_over_accepts_float(self, calibrated_513, small_fabric_4x4):
        result = QsprMapper(MapperOptions(placer="center")).map(
            calibrated_513, small_fabric_4x4
        )
        assert result.improvement_over(result.latency * 2) == pytest.approx(50.0)

    def test_overhead_vs_ideal(self, calibrated_513, small_fabric_4x4):
        result = QualeMapper().map(calibrated_513, small_fabric_4x4)
        assert result.overhead_vs_ideal == pytest.approx(result.latency - result.ideal_latency)
        assert result.overhead_ratio >= 1.0
