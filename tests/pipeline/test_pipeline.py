"""The mapping pipeline: stages, observers, timings and the facade."""

from __future__ import annotations

import pytest

import repro
from repro.errors import CircuitError, FabricError, MappingError
from repro.mapper.options import MapperOptions
from repro.pipeline import (
    PipelineObserver,
    map_circuit,
    resolve_circuit,
    resolve_fabric,
    run_pipeline,
)
from repro.pipeline.stages import STAGE_NAMES
from repro.sim.engine import FabricSimulator


class RecordingObserver(PipelineObserver):
    def __init__(self):
        self.events: list[tuple[str, str]] = []

    def stage_started(self, stage, ctx):
        self.events.append(("start", stage))

    def stage_finished(self, stage, ctx, seconds):
        assert seconds >= 0
        self.events.append(("finish", stage))


class TestMappingPipeline:
    def test_standard_stage_order(self):
        assert STAGE_NAMES == (
            "build-qidg",
            "place",
            "simulate",
            "package-result",
        )

    def test_run_produces_result_with_stage_timings(self, calibrated_513, small_fabric_4x4):
        result = run_pipeline(
            calibrated_513, small_fabric_4x4, options=MapperOptions(placer="center")
        )
        assert result.latency >= result.ideal_latency > 0
        # Dotted entries are sub-attributions inside a stage (e.g. routing
        # time of the simulate stage); the coarse keys are the stages.
        coarse = tuple(name for name in result.stage_seconds if "." not in name)
        assert coarse == STAGE_NAMES
        assert all(seconds >= 0 for seconds in result.stage_seconds.values())
        # The whole run takes at least as long as the sum of its stages.
        assert result.cpu_seconds >= max(result.stage_seconds.values())
        # The center placer defers evaluation to the simulate stage, whose
        # routing share is recorded as a sub-key bounded by the stage itself.
        assert result.stage_seconds["simulate.routing"] == result.routing_seconds
        assert result.routing_seconds <= result.stage_seconds["simulate"]
        # A fresh fabric's route table starts empty, so the run must search.
        stats = result.routing_stats
        assert stats.dijkstra_calls > 0
        assert stats.heap_pops >= stats.edge_relaxations >= 0

    def test_observer_sees_every_stage_in_order(self, calibrated_513, small_fabric_4x4):
        observer = RecordingObserver()
        run_pipeline(
            calibrated_513,
            small_fabric_4x4,
            options=MapperOptions(placer="center"),
            observer=observer,
        )
        expected = [
            item for name in STAGE_NAMES for item in (("start", name), ("finish", name))
        ]
        assert observer.events == expected

    def test_qspr_mapper_forwards_observer(self, calibrated_513, small_fabric_4x4):
        observer = RecordingObserver()
        repro.QsprMapper(MapperOptions(placer="center")).map(
            calibrated_513, small_fabric_4x4, observer=observer
        )
        assert ("finish", "package-result") in observer.events

    def test_unknown_placer_is_a_mapping_error(self, calibrated_513, small_fabric_4x4):
        with pytest.raises(MappingError, match="did you mean 'mvfb'"):
            run_pipeline(
                calibrated_513, small_fabric_4x4, options=MapperOptions(placer="mvfbb")
            )

    def test_empty_circuit_rejected(self, small_fabric_4x4):
        from repro.circuits.circuit import QuantumCircuit

        circuit = QuantumCircuit("empty")
        circuit.add_qubit("q0", 0)
        with pytest.raises(MappingError, match="empty circuit"):
            run_pipeline(circuit, small_fabric_4x4)

    @pytest.mark.parametrize(
        "options",
        [
            MapperOptions(placer="mvfb", num_seeds=2),
            MapperOptions(placer="monte-carlo", num_placements=5),
        ],
        ids=["mvfb", "monte-carlo"],
    )
    def test_placement_runs_count_every_simulator_run(
        self, monkeypatch, calibrated_513, small_fabric_4x4, options
    ):
        runs = []
        original_run = FabricSimulator.run

        def counting_run(simulator, placement):
            runs.append(placement)
            return original_run(simulator, placement)

        monkeypatch.setattr(FabricSimulator, "run", counting_run)
        result = run_pipeline(calibrated_513, small_fabric_4x4, options=options)
        assert result.placement_runs == len(runs) > 1


class TestResolvers:
    def test_resolve_fabric_accepts_names_and_labels(self):
        assert resolve_fabric("quale").name == "quale-45x85"
        grid = resolve_fabric("4x4c3")
        assert grid.num_traps > 0
        assert resolve_fabric(grid) is grid

    def test_resolve_fabric_unknown_name(self):
        with pytest.raises(FabricError, match="did you mean 'quale'"):
            resolve_fabric("qualee")

    def test_resolve_circuit_accepts_names_paths_and_circuits(self, tmp_path, bell_circuit):
        assert resolve_circuit("[[5,1,3]]").num_qubits == 5
        assert resolve_circuit("ghz", num_qubits=4).num_qubits == 4
        assert resolve_circuit(bell_circuit) is bell_circuit
        qasm = tmp_path / "bell.qasm"
        qasm.write_text("QUBIT a,0\nQUBIT b,0\nH a\nC-X a,b\n")
        assert resolve_circuit(str(qasm)).num_qubits == 2

    def test_resolve_circuit_unknown_name(self):
        with pytest.raises(CircuitError) as excinfo:
            resolve_circuit("[[5,1,4]]")
        assert "did you mean" in str(excinfo.value)
        assert "no QASM file" in str(excinfo.value)


class TestMapCircuitFacade:
    def test_names_all_the_way_down(self):
        result = map_circuit("[[5,1,3]]", "small", mapper="qspr", placer="center")
        assert result.mapper_name == "QSPR"
        assert result.latency >= result.ideal_latency > 0

    def test_ideal_mapper_through_facade(self):
        result = map_circuit("[[5,1,3]]", "small", mapper="ideal")
        assert result.latency == result.ideal_latency
        assert result.placement_runs == 0

    def test_option_kwargs_reach_the_mapper(self):
        result = map_circuit(
            "[[5,1,3]]", "small", placer="monte-carlo", num_placements=3, random_seed=1
        )
        assert result.placement_runs == 3

    def test_unknown_option_is_a_mapping_error(self):
        with pytest.raises(MappingError, match="invalid mapper option"):
            map_circuit("[[5,1,3]]", "small", placer="center", bogus_option=1)

    def test_unknown_mapper_gets_suggestion(self):
        with pytest.raises(MappingError, match="did you mean 'qspr'"):
            map_circuit("[[5,1,3]]", "small", mapper="qsrp")

    @pytest.mark.parametrize("kind", ["directory", "overlong-name"])
    def test_a_directory_or_overlong_name_is_a_circuit_error(self, tmp_path, kind):
        # Neither is a QASM file: both get the registry's lookup error, not
        # the operating system's IsADirectoryError or ENAMETOOLONG.
        circuit = str(tmp_path) if kind == "directory" else "x" * 300
        with pytest.raises(CircuitError, match="unknown circuit"):
            map_circuit(circuit, "small", placer="center")

    def test_observer_passes_through(self):
        observer = RecordingObserver()
        map_circuit("[[5,1,3]]", "small", placer="center", observer=observer)
        assert ("finish", "simulate") in observer.events

    def test_facade_matches_explicit_construction(self, small_fabric_4x4):
        from repro.circuits.qecc import qecc_encoder

        facade = map_circuit("[[5,1,3]]", small_fabric_4x4, placer="center")
        explicit = repro.QsprMapper(MapperOptions(placer="center")).map(
            qecc_encoder("[[5,1,3]]"), small_fabric_4x4
        )
        assert facade.latency == explicit.latency
        assert facade.schedule == explicit.schedule
