"""End-to-end service tests: HTTP API on an ephemeral port, real workers.

The acceptance path of the service PR: boot the server, submit a tiny
``[[5,1,3]]`` job over HTTP, poll it to ``done``, fetch the result and check
it equals :func:`repro.map_circuit` run in-process on the same spec — then
resubmit the identical spec and verify it is answered from the dedup/cache
path without re-running the mapper.  One job entered by each of the three
doors (``repro.map_circuit``, ``qspr-map run`` and ``POST /jobs``) must map
the same way.
"""

from __future__ import annotations

import re

import pytest

import repro
from repro.cli import build_parser, main
from repro.mapper.options import MapperOptions
from repro.runner import ExperimentSpec, FabricCell, Sweep
from repro.viz.trace_render import render_gantt
from repro.service import (
    MappingService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)

TINY = FabricCell(junction_rows=4, junction_cols=4)

SPEC_PAYLOAD = {
    "circuit": "[[5,1,3]]",
    "mapper": "qspr",
    "placer": "center",
    "fabric": {"junction_rows": 4, "junction_cols": 4},
}


@pytest.fixture
def service(tmp_path):
    config = ServiceConfig(
        port=0, use_threads=True, poll_interval=0.02
    ).under(tmp_path)
    service = MappingService(config)
    service.start()
    yield service
    service.shutdown()


@pytest.fixture
def client(service) -> ServiceClient:
    return ServiceClient(service.url)


class TestEndToEnd:
    def test_submit_execute_fetch_equals_in_process_mapping(self, client):
        submission = client.submit({"spec": SPEC_PAYLOAD})
        assert submission["created"] == 1 and submission["deduped"] == 0
        (job,) = submission["jobs"]
        assert job["status"] == "queued"

        done = client.wait(job["id"], timeout=120.0)
        assert done["status"] == "done", done.get("error")

        fetched = client.result(job["id"])
        assert fetched["id"] == job["id"]
        assert set(fetched["stage_seconds"]) >= {"build-qidg", "place", "simulate"}

        # The service answer equals mapping the same spec in-process.
        spec = ExperimentSpec.from_dict(SPEC_PAYLOAD)
        reference = repro.map_circuit(
            spec.circuit,
            spec.build_fabric(),
            mapper=spec.mapper,
            placer=spec.placer,
            num_seeds=spec.num_seeds,
            random_seed=spec.random_seed,
        )
        assert fetched["result"]["latency"] == reference.latency
        assert fetched["result"]["ideal_latency"] == reference.ideal_latency
        assert fetched["result"]["total_moves"] == reference.total_moves

    def test_resubmission_is_served_from_dedup_path(self, client):
        first = client.submit({"spec": SPEC_PAYLOAD})["jobs"][0]
        done = client.wait(first["id"], timeout=120.0)
        assert done["status"] == "done"

        again = client.submit({"spec": SPEC_PAYLOAD})
        assert again["created"] == 0 and again["deduped"] == 1
        assert again["jobs"][0]["id"] == first["id"]  # no new job, no re-run
        metrics = client.metrics()
        assert metrics["jobs"]["total"] == 1

    def test_sweep_submission_expands_into_jobs(self, client):
        submission = client.submit(
            {
                "sweep": {
                    "circuits": "[[5,1,3]]",
                    "mappers": "qspr,ideal",
                    "placers": "center",
                    "fabrics": [{"junction_rows": 4, "junction_cols": 4}],
                }
            }
        )
        assert len(submission["jobs"]) == 2  # qspr/center + ideal (deduped axes)
        finished = client.wait(
            [job["id"] for job in submission["jobs"]], timeout=120.0
        )
        assert [job["status"] for job in finished] == ["done", "done"]

    def test_scenario_grid_runs_end_to_end(self, client):
        """A technologies × schedulers × features grid over HTTP to done."""
        submission = client.submit(
            {
                "sweep": {
                    "circuits": "[[5,1,3]]",
                    "placers": "center",
                    "fabrics": [{"junction_rows": 4, "junction_cols": 4}],
                    "technologies": "paper,fast-turn",
                    "schedulers": "qspr,qpos-dependents",
                    "turn_aware": "1,0",
                }
            }
        )
        assert submission["created"] == 8  # 2 tech x 2 sched x 2 features
        finished = client.wait(
            [job["id"] for job in submission["jobs"]], timeout=240.0
        )
        assert all(job["status"] == "done" for job in finished), finished
        results = {
            (job["spec"]["technology"], job["spec"]["scheduler"],
             job["spec"]["turn_aware"]): client.result(job["id"])["result"]
            for job in finished
        }
        assert len(results) == 8
        # fast-turn delays strictly beat the paper PMD on every cell.
        for scheduler in ("qspr", "qpos-dependents"):
            for turn_aware in (True, False):
                fast = results[("fast-turn", scheduler, turn_aware)]
                paper = results[("paper", scheduler, turn_aware)]
                assert fast["latency"] < paper["latency"]

    def test_jobs_listing_honours_limit(self, service, client):
        service.store.request_shutdown()  # keep everything queued
        client.submit(
            {
                "sweep": {
                    "circuits": "[[5,1,3]],[[7,1,3]]",
                    "placers": "center",
                    "fabrics": [{"junction_rows": 4, "junction_cols": 4}],
                }
            }
        )
        assert len(client.jobs()) == 2
        assert len(client.jobs(limit=1)) == 1
        with pytest.raises(ServiceError, match="limit must be an integer"):
            client._request("GET", "/jobs?limit=lots")

    def test_health_and_metrics(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] >= 1
        assert health["queue_depth"] == 0

        job = client.submit({"spec": SPEC_PAYLOAD})["jobs"][0]
        client.wait(job["id"], timeout=120.0)
        metrics = client.metrics()
        assert metrics["done"] == 1
        assert metrics["stage_seconds"].get("simulate", 0.0) > 0.0
        assert metrics["wall_seconds"]["total"] > 0.0


class TestOneJobAtEveryDoor:
    def test_default_job_maps_alike_at_all_three_doors(self, client, capsys):
        # No options at any door: the paper's MVFB search at m=25.
        facade = repro.map_circuit("[[5,1,3]]")
        assert main(["run", "--benchmark", "[[5,1,3]]", "--show-trace"]) == 0
        cli_out = capsys.readouterr().out
        (job,) = client.submit({"circuit": "[[5,1,3]]"})["jobs"]
        assert client.wait(job["id"], timeout=120.0)["status"] == "done"
        served = client.result(job["id"])["result"]

        assert (facade.latency, facade.placement_runs) == (632.0, 147)
        assert (served["latency"], served["placement_runs"]) == (632.0, 147)
        # Each door builds its own fabric, so the work counters match too.
        cpu_line = re.compile(r"^  mapping CPU time  : .*\n", re.MULTILINE)
        assert cpu_line.sub("", facade.summary() + "\n") in cpu_line.sub("", cli_out)
        assert render_gantt(facade.trace) in cli_out

    def test_run_seed_seeds_placement_not_the_circuit(self, capsys):
        name = "random-layered:q=8:d=12"
        facade = repro.map_circuit(name, "small", placer="center", random_seed=7)
        argv = ["run", "--benchmark", name, "--seed", "7", "--placer", "center"]
        assert main(argv + ["--fabric", "small"]) == 0
        cli_out = capsys.readouterr().out
        assert facade.summary().splitlines()[:2] == cli_out.splitlines()[:2]

    def test_every_door_defaults_to_the_papers_seed_count(self):
        parser = build_parser()
        defaults = [
            parser.parse_args(["run", "--benchmark", "[[5,1,3]]"]).seeds,
            int(parser.parse_args(["sweep"]).seeds),
            int(parser.parse_args(["submit"]).seeds),
            *Sweep(circuits=("[[5,1,3]]",)).num_seeds,
            ExperimentSpec("[[5,1,3]]").num_seeds,
        ]
        assert defaults == [MapperOptions.num_seeds] * 5 == [25] * 5


class TestValidationAndErrors:
    def test_unknown_mapper_is_rejected_at_enqueue(self, client):
        with pytest.raises(ServiceError, match="did you mean 'qspr'"):
            client.submit({"spec": {**SPEC_PAYLOAD, "mapper": "qsprr"}})
        assert client.jobs() == []  # nothing was enqueued

    def test_unknown_circuit_is_rejected_at_enqueue(self, client):
        with pytest.raises(ServiceError, match="unknown circuit"):
            client.submit({"spec": {**SPEC_PAYLOAD, "circuit": "[[404,1,3]]"}})

    def test_unknown_sweep_axis_is_rejected(self, client):
        with pytest.raises(ServiceError, match="unknown sweep axes"):
            client.submit({"sweep": {"circuits": "[[5,1,3]]", "frobnicators": "yes"}})

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.job("doesnotexist")
        assert excinfo.value.status == 404

    def test_result_of_unfinished_job_is_409(self, service, client):
        service.store.request_shutdown()  # idle the workers
        job = client.submit({"spec": SPEC_PAYLOAD})["jobs"][0]
        with pytest.raises(ServiceError) as excinfo:
            client.result(job["id"])
        assert excinfo.value.status == 409
        assert "queued" in str(excinfo.value)

    def test_cancel_queued_job(self, service, client):
        service.store.request_shutdown()  # keep the job in the queue
        job = client.submit({"spec": SPEC_PAYLOAD})["jobs"][0]
        cancelled = client.cancel(job["id"])
        assert cancelled["status"] == "cancelled"
        assert client.jobs(status="cancelled")[0]["id"] == job["id"]

    def test_unroutable_path_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404


class TestCliClientAgainstLiveService:
    def test_submit_wait_status_jobs(self, service, capsys):
        from repro.cli import main

        url = service.url
        assert main(
            [
                "submit", "--url", url,
                "--benchmarks", "[[5,1,3]]", "--placers", "center",
                "--fabric-rows", "4", "--fabric-cols", "4",
                "--wait", "--timeout", "120",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "submitted 1 jobs" in out and "latency" in out

        assert main(["jobs", "--url", url]) == 0
        listing = capsys.readouterr().out
        assert "done" in listing and "1 jobs" in listing

        job_id = listing.split()[0]
        assert main(["status", job_id, "--url", url]) == 0
        status_out = capsys.readouterr().out
        assert "status          : done" in status_out

    def test_client_error_is_a_cli_error(self, service, capsys):
        from repro.cli import main

        assert main(["status", "missing", "--url", service.url]) == 1
        assert "unknown job" in capsys.readouterr().err
