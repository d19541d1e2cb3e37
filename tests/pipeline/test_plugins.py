"""Third-party plugins flow end to end without touching any core module.

The acceptance scenario of the pipeline redesign: register a custom placer
(and a custom mapper) through the decorator API, then drive them by name
through every front end — the :func:`repro.map_circuit` facade, the
:class:`~repro.runner.spec.ExperimentSpec`/:func:`~repro.runner.executor.run_sweep`
runner and the ``qspr-map`` CLI.
"""

from __future__ import annotations

import pytest

import repro
from repro.errors import MappingError
from repro.pipeline import MAPPERS, PLACERS, PipelineContext
from repro.placement.base import Placement
from repro.runner import ExperimentSpec, Sweep, execute_cell, run_sweep


@pytest.fixture
def corner_placer():
    """A custom strategy: qubits packed against the top-left corner."""

    @PLACERS.register("test-corner")
    def corner_strategy(ctx: PipelineContext) -> Placement:
        traps = ctx.fabric.traps_by_distance((0.0, 0.0))
        return Placement(
            {qubit.name: traps[i].id for i, qubit in enumerate(ctx.circuit.qubits)}
        )

    yield "test-corner"
    PLACERS.unregister("test-corner")


@pytest.fixture
def echo_mapper():
    """A custom mapper that honours the options it is handed (like QSPR)."""

    @MAPPERS.register("test-echo")
    def build_echo(options=None):
        return repro.QsprMapper(options)

    yield "test-echo"
    MAPPERS.unregister("test-echo")


class TestCustomPlacer:
    def test_through_the_facade(self, corner_placer):
        result = repro.map_circuit("[[5,1,3]]", "small", placer=corner_placer)
        assert result.latency >= result.ideal_latency > 0
        assert result.options.placer == corner_placer

    def test_through_experiment_spec_and_runner(self, corner_placer):
        spec = ExperimentSpec("[[5,1,3]]", placer=corner_placer)
        cell = execute_cell(spec)
        assert cell.placer == corner_placer
        assert cell.latency >= cell.ideal_latency > 0

    def test_through_a_sweep_grid(self, corner_placer):
        sweep = Sweep(
            circuits=("[[5,1,3]]",),
            mappers=("qspr",),
            placers=(corner_placer, "center"),
        )
        run = run_sweep(sweep)
        labels = {result.config_label for result in run.results}
        assert labels == {f"qspr/{corner_placer}", "qspr/center"}

    def test_through_the_cli(self, corner_placer, capsys):
        from repro.cli import main

        assert main(["list", "--registry", "placers"]) == 0
        assert corner_placer in capsys.readouterr().out
        rc = main(
            ["run", "--benchmark", "[[5,1,3]]", "--placer", corner_placer,
             "--fabric", "small"]
        )
        assert rc == 0
        assert "latency" in capsys.readouterr().out

    def test_unregistered_name_still_rejected(self):
        with pytest.raises(MappingError, match="unknown placer"):
            ExperimentSpec("[[5,1,3]]", placer="test-corner")

    def test_custom_placer_keeps_all_cache_key_axes(self, corner_placer):
        """Nothing is known about a custom placer's knobs, so none collapse."""
        small = ExperimentSpec("[[5,1,3]]", placer=corner_placer, num_placements=4)
        large = ExperimentSpec("[[5,1,3]]", placer=corner_placer, num_placements=64)
        assert small.cache_key() != large.cache_key()
        seeded = ExperimentSpec("[[5,1,3]]", placer=corner_placer, random_seed=7)
        assert seeded.cache_key() != ExperimentSpec(
            "[[5,1,3]]", placer=corner_placer
        ).cache_key()


class TestCustomMapper:
    def test_through_the_facade(self, echo_mapper):
        result = repro.map_circuit("[[5,1,3]]", "small", mapper=echo_mapper)
        assert result.mapper_name == "QSPR"

    def test_through_experiment_spec(self, echo_mapper):
        cell = execute_cell(
            ExperimentSpec("[[5,1,3]]", mapper=echo_mapper, placer="center")
        )
        assert cell.mapper == echo_mapper
        assert cell.placer == "center"  # plugin mappers keep the placer axis
        assert cell.latency > 0

    def test_plugin_mapper_receives_the_spec_axes(self, echo_mapper):
        """The spec's placer/seed axes reach a plugin mapper's factory."""
        spec = ExperimentSpec(
            "[[5,1,3]]", mapper=echo_mapper, placer="center", random_seed=3
        )
        mapper = spec.build_mapper()
        assert mapper.options.placer == "center"
        assert mapper.options.random_seed == 3

    def test_plugin_mapper_placer_typo_rejected(self, echo_mapper):
        with pytest.raises(MappingError, match="did you mean 'center'"):
            ExperimentSpec("[[5,1,3]]", mapper=echo_mapper, placer="centre")

    def test_spec_validation_is_live(self, echo_mapper):
        # Accepted while registered...
        ExperimentSpec("[[5,1,3]]", mapper=echo_mapper)
        MAPPERS.unregister(echo_mapper)
        try:
            with pytest.raises(MappingError, match="unknown mapper"):
                ExperimentSpec("[[5,1,3]]", mapper=echo_mapper)
        finally:  # restore for the fixture's own unregister
            MAPPERS.register(echo_mapper, lambda options=None: None)
