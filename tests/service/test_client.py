"""The service client and the CLI commands built on it.

``qspr-map submit``, ``status``, ``jobs`` and ``cancel`` reach a running
service through :class:`~repro.service.ServiceClient`; these tests pin the
client's conveniences and its failure when no service listens.
"""

from __future__ import annotations

import socket

import pytest

from repro.cli import main
from repro.runner import ExperimentSpec, FabricCell, Sweep
from repro.service import MappingService, ServiceClient, ServiceConfig, ServiceError

TINY = FabricCell(junction_rows=4, junction_cols=4)


@pytest.fixture
def dead_url() -> str:
    """The URL of a local port that nothing listens on."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    return f"http://127.0.0.1:{port}"


@pytest.fixture
def idle_service(tmp_path):
    """A live service whose workers have been told to stop: jobs stay queued."""
    config = ServiceConfig(port=0, use_threads=True, poll_interval=0.02).under(tmp_path)
    service = MappingService(config)
    service.start()
    service.store.request_shutdown()
    yield service
    service.shutdown()


class TestUnreachableService:
    @pytest.mark.parametrize("method", ["health", "metrics_text"])
    def test_client_call_is_a_service_error(self, dead_url, method):
        with pytest.raises(ServiceError, match="cannot reach mapping service"):
            getattr(ServiceClient(dead_url, timeout=5.0), method)()

    @pytest.mark.parametrize(
        "argv",
        [
            ["status"],
            ["jobs"],
            ["cancel", "some-job"],
            ["submit", "--benchmarks", "ghz", "--placers", "center"],
        ],
        ids=["status", "jobs", "cancel", "submit"],
    )
    def test_cli_command_exits_with_an_error(self, dead_url, argv, capsys):
        assert main([*argv, "--url", dead_url]) == 1
        assert "cannot reach mapping service" in capsys.readouterr().err


class TestClientAgainstIdleService:
    def test_url_loses_its_trailing_slash(self):
        assert ServiceClient("http://127.0.0.1:8321/").url == "http://127.0.0.1:8321"

    def test_submit_accepts_spec_and_sweep_objects(self, idle_service):
        client = ServiceClient(idle_service.url)
        spec = ExperimentSpec("[[5,1,3]]", placer="center", fabric=TINY)
        (job,) = client.submit(spec)["jobs"]
        assert job["spec"]["circuit"] == "[[5,1,3]]"

        sweep = Sweep(circuits=("[[5,1,3]]", "ghz"), placers=("center",), fabrics=(TINY,))
        submission = client.submit(sweep)
        assert submission["created"] == 1 and submission["deduped"] == 1
        assert [job["spec"]["circuit"] for job in submission["jobs"]] == [
            "[[5,1,3]]", "ghz",
        ]

    def test_wait_times_out_on_a_job_that_stays_queued(self, idle_service):
        client = ServiceClient(idle_service.url)
        spec = ExperimentSpec("[[5,1,3]]", placer="center", fabric=TINY)
        (job,) = client.submit(spec)["jobs"]
        with pytest.raises(ServiceError, match=r"timed out .*\(status: queued\)"):
            client.wait(job["id"], timeout=0.1, poll_interval=0.02)

    def test_cli_status_without_a_job_prints_health(self, idle_service, capsys):
        assert main(["status", "--url", idle_service.url]) == 0
        out = capsys.readouterr().out
        assert "status          : ok" in out
        assert "queue_depth" in out

    def test_cli_cancel_prints_the_cancelled_job(self, idle_service, capsys):
        client = ServiceClient(idle_service.url)
        spec = ExperimentSpec("[[5,1,3]]", placer="center", fabric=TINY)
        (job,) = client.submit(spec)["jobs"]
        assert main(["cancel", job["id"], "--url", idle_service.url]) == 0
        line = capsys.readouterr().out
        assert line.startswith(job["id"]) and "cancelled" in line
        assert client.job(job["id"])["status"] == "cancelled"
