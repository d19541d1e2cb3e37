"""``qspr-map top``: snapshot document, rendering, and the CLI round-trip."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.ops.top import render, run_top, snapshot
from repro.runner.results import CellResult
from repro.runner.spec import ExperimentSpec
from repro.service import JobStore
from repro.service.metrics import service_metrics


@pytest.fixture
def spec():
    return ExperimentSpec("[[5,1,3]]", placer="center")


@pytest.fixture
def store(tmp_path):
    return JobStore(tmp_path / "jobs.sqlite3")


def _finish_one_job(store, spec):
    """Submit → claim → complete one job, populating the histograms."""
    job, _ = store.submit(spec)
    claimed = store.claim("w0")
    cell = CellResult(
        circuit=spec.circuit, mapper=spec.mapper, placer="center",
        latency=100.0, ideal_latency=80.0, routing_seconds=0.1,
        route_cache_hits=3, route_cache_misses=1,
    )
    store.complete(claimed.id, cell, stage_seconds={"place": 0.2, "simulate": 0.3})
    return claimed


class TestSnapshot:
    def test_empty_store(self, store):
        frame = snapshot(store)
        assert frame["queue_depth"] == 0
        assert frame["jobs"]["total"] == 0
        assert frame["latencies"] == {}
        assert frame["workers"] == []
        assert frame["schema_version"] == store.schema_version()

    def test_running_job_appears_in_the_worker_panel(self, store, spec):
        store.submit(spec)
        claimed = store.claim("w7", lease_seconds=60.0)
        frame = snapshot(store)
        assert frame["running"] == 1
        (lease,) = frame["workers"]
        assert lease["worker"] == "w7"
        assert lease["job_id"] == claimed.id
        assert 0.0 < lease["lease_seconds_left"] <= 60.0

    def test_finished_job_populates_latency_percentiles(self, store, spec):
        _finish_one_job(store, spec)
        frame = snapshot(store)
        assert frame["jobs"]["done"] == 1
        for series in ("queue_wait", "wall", "stage:place", "stage:simulate"):
            assert frame["latencies"][series]["count"] == 1
            assert frame["latencies"][series]["p95_seconds"] >= 0.0
        assert frame["route_cache"] == service_metrics(store)["route_cache"]
        assert frame["route_cache"]["hit_rate"] == pytest.approx(0.75)

    def test_snapshot_round_trips_through_json(self, store, spec):
        _finish_one_job(store, spec)
        frame = json.loads(json.dumps(snapshot(store)))
        assert frame["jobs"]["done"] == 1


class TestRender:
    def test_panel_mentions_the_key_numbers(self, store, spec):
        _finish_one_job(store, spec)
        store.submit(ExperimentSpec("[[7,1,3]]", placer="center"))
        text = render(snapshot(store), color=False)
        assert "queued     1" in text
        assert "done      1" in text
        assert "stage place" in text
        assert "75% hit rate" in text
        assert "route cache: 3 hits / 1 misses" in text
        assert "\x1b[" not in text, "color=False must not emit ANSI codes"

    def test_empty_store_renders_placeholders(self, store):
        text = render(snapshot(store), color=False)
        assert "(no completed jobs yet)" in text
        assert "(no jobs running)" in text


class TestRunTop:
    def test_once_json_round_trips_against_a_live_store(self, store, spec):
        _finish_one_job(store, spec)
        out = io.StringIO()
        assert run_top(str(store.db_path), once=True, as_json=True, out=out) == 0
        frame = json.loads(out.getvalue())
        assert frame["jobs"]["done"] == 1
        assert frame["latencies"]["wall"]["count"] == 1

    def test_iterations_bound_the_loop(self, store):
        out = io.StringIO()
        assert run_top(
            str(store.db_path), interval=0.0, iterations=2, out=out
        ) == 0
        assert out.getvalue().count("\x1b[2J") == 2


class TestCli:
    def test_top_json_cli(self, store, spec, capsys):
        _finish_one_job(store, spec)
        assert main(["top", "--db", str(store.db_path), "--json"]) == 0
        frame = json.loads(capsys.readouterr().out)
        assert frame["queue_depth"] == 0
        assert frame["jobs"]["done"] == 1

    def test_top_missing_store_is_a_clean_error(self, tmp_path, capsys):
        assert main(["top", "--db", str(tmp_path / "nope.sqlite3")]) == 1
        assert "job store not found" in capsys.readouterr().err

    def test_jobs_prune_cli(self, store, spec, capsys):
        _finish_one_job(store, spec)
        assert main([
            "jobs", "prune", "--db", str(store.db_path), "--retention-days", "0",
        ]) == 0
        output = capsys.readouterr().out
        assert "pruned 1 terminal jobs" in output
        assert store.counts()["done"] == 0

    def test_jobs_prune_requires_retention_days(self, store, capsys):
        assert main(["jobs", "prune", "--db", str(store.db_path)]) == 1
        assert "--retention-days" in capsys.readouterr().err
