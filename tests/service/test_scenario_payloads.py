"""Service payload coverage for the scenario axes.

``POST /jobs`` must accept both the pre-scenario payload shape (no
technology/scheduler/routing-feature fields → paper defaults) and the new
shape, and the job-dedup hash must distinguish scenarios so a cached paper
result is never served for another technology.
"""

from __future__ import annotations

import pytest

from repro.errors import MappingError
from repro.runner import ExperimentSpec, FabricCell
from repro.service import MappingService, ServiceConfig
from repro.service.jobs import spec_from_payload, sweep_from_payload
from repro.service.store import JobStore

TINY = FabricCell(junction_rows=4, junction_cols=4)

OLD_PAYLOAD = {
    "circuit": "[[5,1,3]]",
    "mapper": "qspr",
    "placer": "center",
    "fabric": {"junction_rows": 4, "junction_cols": 4},
}

NEW_PAYLOAD = dict(
    OLD_PAYLOAD,
    technology="fast-turn",
    scheduler="quale-alap",
    turn_aware=False,
    meeting_point="center",
    channel_capacity=1,
    barrier_scheduling=True,
)


class TestPayloadShapes:
    def test_old_spec_payload_defaults_to_paper_scenario(self):
        spec = spec_from_payload(OLD_PAYLOAD)
        assert spec.technology == "paper"
        assert spec.scheduler == "qspr"

    def test_new_spec_payload_round_trips(self):
        spec = spec_from_payload(NEW_PAYLOAD)
        assert spec.technology == "fast-turn"
        assert spec.scheduler == "quale-alap"
        assert spec.turn_aware is False
        assert spec.meeting_point == "center"
        assert spec.channel_capacity == 1
        assert spec.barrier_scheduling is True

    def test_unknown_scenario_name_is_an_enqueue_time_error(self):
        with pytest.raises(MappingError, match="technology"):
            spec_from_payload(dict(OLD_PAYLOAD, technology="warp"))
        with pytest.raises(MappingError, match="scheduler"):
            spec_from_payload(dict(OLD_PAYLOAD, scheduler="magic"))

    def test_sweep_payload_accepts_scenario_axes(self):
        cells = sweep_from_payload(
            {
                "circuits": "[[5,1,3]]",
                "placers": "center",
                "fabrics": [{"junction_rows": 4, "junction_cols": 4}],
                "technologies": "paper,cap-1",
                "schedulers": "qspr,qpos-dependents",
                "barriers": "0,1",
            }
        )
        assert len(cells) == 8
        assert {cell.technology for cell in cells} == {"paper", "cap-1"}

    def test_old_sweep_payload_still_expands(self):
        cells = sweep_from_payload(
            {"circuits": "[[5,1,3]]", "placers": "center",
             "fabrics": [{"junction_rows": 4, "junction_cols": 4}]}
        )
        assert len(cells) == 1
        assert cells[0].technology == "paper"


class TestScenarioDedup:
    def test_same_spec_different_technology_is_not_deduped(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        paper, created_paper = store.submit(
            ExperimentSpec("[[5,1,3]]", placer="center", fabric=TINY)
        )
        fast, created_fast = store.submit(
            ExperimentSpec(
                "[[5,1,3]]", placer="center", fabric=TINY, technology="fast-turn"
            )
        )
        assert created_paper and created_fast
        assert paper.id != fast.id
        assert paper.cache_key != fast.cache_key

    def test_http_submission_of_both_shapes(self, tmp_path):
        # The service is never start()ed: submit_payload is exercised
        # in-process, without HTTP or workers.
        config = ServiceConfig(port=0, use_threads=True).under(tmp_path)
        service = MappingService(config)
        try:
            old = service.submit_payload({"spec": OLD_PAYLOAD})
            new = service.submit_payload({"spec": NEW_PAYLOAD})
            assert old["created"] == 1 and new["created"] == 1
            assert old["jobs"][0]["id"] != new["jobs"][0]["id"]
            # The served job record round-trips the scenario fields.
            assert new["jobs"][0]["spec"]["technology"] == "fast-turn"
            again = service.submit_payload({"spec": NEW_PAYLOAD})
            assert again["deduped"] == 1
        finally:
            # Closes the store's connection and the log file.
            service.shutdown()
