"""Scenario axes (technology/scheduler/routing features) across the runner.

Covers the spec/sweep surface of the scenario engine: validation, labels,
normalisation, cache keying, payload back-compat and report columns.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import MappingError
from repro.runner import (
    CellResult,
    ExperimentSpec,
    FabricCell,
    ResultCache,
    Sweep,
    execute_cell,
    parse_bool_axis,
    parse_capacity_axis,
    write_csv,
)
from repro.runner.results import CSV_FIELDS
from repro.technology import MAX_CHANNEL_CAPACITY

TINY = FabricCell(junction_rows=4, junction_cols=4)


def _spec(**overrides) -> ExperimentSpec:
    defaults = dict(circuit="[[5,1,3]]", placer="center", fabric=TINY)
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestSpecScenarioAxes:
    def test_defaults_are_the_paper_scenario(self):
        spec = _spec()
        assert spec.technology == "paper"
        assert spec.scheduler == "qspr"
        assert spec.turn_aware is True
        assert spec.meeting_point == "median"
        assert spec.channel_capacity is None
        assert spec.barrier_scheduling is False

    def test_rejects_unknown_technology(self):
        with pytest.raises(MappingError, match="technology"):
            _spec(technology="warp-drive")

    def test_rejects_unknown_scheduler(self):
        with pytest.raises(MappingError, match="scheduler"):
            _spec(scheduler="magic")

    def test_rejects_unknown_meeting_point(self):
        with pytest.raises(MappingError, match="meeting point"):
            _spec(meeting_point="corner")

    def test_rejects_bad_capacity(self):
        with pytest.raises(MappingError, match="channel_capacity"):
            _spec(channel_capacity=0)

    @pytest.mark.parametrize("capacity", [MAX_CHANNEL_CAPACITY + 1, 10**9])
    def test_rejects_a_capacity_above_the_maximum(self, capacity):
        # The router's weight tables grow with the capacity, so a spec from
        # a payload or the command line is refused before anything runs.
        assert _spec(channel_capacity=MAX_CHANNEL_CAPACITY).channel_capacity == 64
        with pytest.raises(MappingError, match="channel_capacity must be at most 64"):
            _spec(channel_capacity=capacity)

    def test_config_label_tags_non_default_axes(self):
        assert _spec().config_label() == "qspr/center"
        labelled = _spec(
            technology="fast-turn",
            scheduler="quale-alap",
            turn_aware=False,
            meeting_point="center",
            channel_capacity=1,
            barrier_scheduling=True,
        )
        assert labelled.config_label() == (
            "qspr/center+fast-turn+quale-alap+no-turn-aware+meet-center+cap1+barriers"
        )

    def test_mapper_options_carry_the_scenario(self):
        options = _spec(
            technology="slow-2q", scheduler="qpos-dependents", channel_capacity=1,
            turn_aware=False, barrier_scheduling=True,
        ).mapper_options()
        assert options.technology.two_qubit_gate_delay == 300.0
        assert options.scheduler_name == "qpos-dependents"
        assert options.technology.channel_capacity == 1
        assert options.turn_aware_routing is False
        assert options.barrier_scheduling is True

    def test_normalisation_collapses_scenario_for_presets_but_keeps_technology(self):
        spec = ExperimentSpec(
            "[[5,1,3]]", mapper="quale", placer="mvfb", fabric=TINY,
            technology="fast-turn", scheduler="qpos-dependents",
            turn_aware=False, barrier_scheduling=True,
        )
        norm = spec.normalized()
        assert norm.technology == "fast-turn"
        assert norm.scheduler == "qspr"
        assert norm.turn_aware is True
        assert norm.barrier_scheduling is False

    def test_preset_mapper_honours_the_technology_axis(self):
        paper = execute_cell(ExperimentSpec("[[5,1,3]]", mapper="quale", fabric=TINY))
        fast = execute_cell(
            ExperimentSpec(
                "[[5,1,3]]", mapper="quale", fabric=TINY, technology="fast-turn"
            )
        )
        assert fast.latency < paper.latency

    def test_scenario_changes_the_mapping_result(self):
        paper = execute_cell(_spec())
        fast = execute_cell(_spec(technology="fast-turn"))
        assert fast.latency < paper.latency
        assert fast.technology == "fast-turn"
        assert fast.config_label == "qspr/center+fast-turn"


class TestPayloadBackCompat:
    """Pre-scenario JSON payloads still load with paper defaults."""

    OLD_SPEC_PAYLOAD = {
        "circuit": "[[5,1,3]]",
        "mapper": "qspr",
        "placer": "center",
        "num_seeds": 2,
        "num_placements": None,
        "random_seed": 0,
        "fabric": {
            "junction_rows": 4, "junction_cols": 4,
            "channel_length": 3, "traps_per_channel": 2,
        },
    }

    def test_old_spec_payload_gets_paper_defaults(self):
        spec = ExperimentSpec.from_dict(self.OLD_SPEC_PAYLOAD)
        assert spec.technology == "paper"
        assert spec.scheduler == "qspr"
        assert spec.turn_aware is True
        assert spec.channel_capacity is None
        assert spec == _spec(num_seeds=2)

    def test_old_sweep_payload_gets_paper_defaults(self):
        sweep = Sweep.from_dict(
            {"circuits": "[[5,1,3]]", "mappers": "qspr", "placers": "center"}
        )
        assert sweep.technologies == ("paper",)
        assert sweep.schedulers == ("qspr",)
        assert sweep.turn_aware == (True,)
        assert sweep.barriers == (False,)

    def test_new_payload_round_trips(self):
        spec = _spec(technology="cap-1", scheduler="quale-alap", barrier_scheduling=True)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        sweep = Sweep(
            circuits=("[[5,1,3]]",), technologies=("paper", "cap-1"),
            schedulers=("qspr", "quale-alap"), turn_aware=(True, False),
            channel_capacities=(None, 1), barriers=(False, True),
        )
        assert Sweep.from_dict(sweep.to_dict()) == sweep
        assert json.loads(json.dumps(sweep.to_dict())) == sweep.to_dict()


class TestScenarioCacheKeys:
    def test_technology_axis_misses_other_technologies_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        paper = _spec()
        fast = _spec(technology="fast-turn")
        cache.store(paper, CellResult(circuit="[[5,1,3]]", mapper="qspr", latency=1.0))
        assert cache.load(fast) is None, (
            "a cached paper-technology result must not be served for fast-turn"
        )
        cache.store(fast, CellResult(circuit="[[5,1,3]]", mapper="qspr", latency=2.0))
        assert cache.load(paper).latency == 1.0
        assert cache.load(fast).latency == 2.0

    @pytest.mark.parametrize(
        "axis",
        [
            {"technology": "cap-1"},
            {"scheduler": "quale-alap"},
            {"turn_aware": False},
            {"meeting_point": "center"},
            {"channel_capacity": 1},
            {"barrier_scheduling": True},
        ],
        ids=lambda axis: next(iter(axis)),
    )
    def test_every_scenario_axis_changes_the_cache_key(self, axis):
        assert _spec(**axis).cache_key() != _spec().cache_key()


class TestSweepScenarioGrid:
    def test_grid_expands_technologies_x_schedulers_x_features(self):
        sweep = Sweep(
            circuits=("[[5,1,3]]",), placers=("center",), fabrics=(TINY,),
            technologies=("paper", "fast-turn"),
            schedulers=("qspr", "qpos-dependents"),
            barriers=(False, True),
        )
        cells = sweep.expand()
        assert len(cells) == 8
        assert {cell.technology for cell in cells} == {"paper", "fast-turn"}
        assert {cell.scheduler for cell in cells} == {"qspr", "qpos-dependents"}
        assert {cell.barrier_scheduling for cell in cells} == {False, True}
        assert len({cell.config_label() for cell in cells}) == 8

    def test_presets_deduplicate_scheduler_and_feature_axes(self):
        sweep = Sweep(
            circuits=("[[5,1,3]]",), mappers=("quale",), fabrics=(TINY,),
            schedulers=("qspr", "qpos-dependents"), turn_aware=(True, False),
        )
        # QUALE pins its scheduler and routing: one cell, not four.
        assert sweep.size == 1

    def test_empty_scenario_axis_rejected(self):
        with pytest.raises(MappingError, match="technologies"):
            Sweep(circuits=("[[5,1,3]]",), technologies=())

    def test_from_dict_parses_axis_spellings(self):
        sweep = Sweep.from_dict(
            {
                "circuits": "[[5,1,3]]",
                "technologies": "paper, cap-1",
                "schedulers": "qspr,quale-alap",
                "turn_aware": "1,0",
                "meeting_points": "median,center",
                "channel_capacities": "default,1",
                "barriers": "false,true",
            }
        )
        assert sweep.technologies == ("paper", "cap-1")
        assert sweep.schedulers == ("qspr", "quale-alap")
        assert sweep.turn_aware == (True, False)
        assert sweep.meeting_points == ("median", "center")
        assert sweep.channel_capacities == (None, 1)
        assert sweep.barriers == (False, True)


class TestAxisParsers:
    def test_parse_bool_axis(self):
        assert parse_bool_axis("1,0") == (True, False)
        assert parse_bool_axis("true, no, on") == (True, False, True)
        assert parse_bool_axis(False) == (False,)
        assert parse_bool_axis([True, "0"]) == (True, False)
        with pytest.raises(MappingError, match="expects booleans"):
            parse_bool_axis("maybe")

    def test_parse_capacity_axis(self):
        assert parse_capacity_axis("default,1,2") == (None, 1, 2)
        assert parse_capacity_axis(None) == (None,)
        assert parse_capacity_axis(3) == (3,)
        assert parse_capacity_axis(0) == (None,)  # bare JSON 0 == "0" == default
        assert parse_capacity_axis([None, "4"]) == (None, 4)
        with pytest.raises(MappingError, match="channel_capacities"):
            parse_capacity_axis("lots")


class TestReportColumns:
    def test_csv_gains_scenario_columns(self, tmp_path):
        assert {"technology", "scheduler", "turn_aware", "meeting_point",
                "channel_capacity", "barrier_scheduling"} <= set(CSV_FIELDS)
        path = write_csv(
            [CellResult(circuit="c", mapper="qspr", placer="center",
                        technology="cap-1", scheduler="quale-alap")],
            tmp_path / "r.csv",
        )
        header, row = path.read_text().splitlines()[:2]
        assert "technology" in header and "scheduler" in header
        assert "cap-1" in row and "quale-alap" in row

    def test_old_result_records_load_with_paper_defaults(self):
        old_record = {"circuit": "c", "mapper": "qspr", "placer": "mvfb",
                      "latency": 5.0}
        cell = CellResult.from_dict(old_record)
        assert cell.technology == "paper"
        assert cell.scheduler == "qspr"
        assert cell.config_label == "qspr/mvfb"
