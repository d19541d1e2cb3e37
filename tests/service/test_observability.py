"""Observability layer: /metrics exposition, healthz, logs, admission, prune."""

from __future__ import annotations

import json
import socket
import sqlite3
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.ops.logging import read_jsonl
from repro.ops.prom import histogram_series, parse_exposition
from repro.runner.results import CellResult
from repro.runner.spec import ExperimentSpec, FabricCell
from repro.service import (
    JobStore,
    MappingService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    render_prometheus,
    service_metrics,
)
from repro.service.store import _SCHEMA, SCHEMA_VERSION

SPEC_PAYLOAD = {"circuit": "[[5,1,3]]", "placer": "center", "num_seeds": 1}


@pytest.fixture
def config(tmp_path):
    return ServiceConfig(
        port=0, use_threads=True, workers=1, poll_interval=0.05
    ).under(tmp_path)


@pytest.fixture
def service(config):
    service = MappingService(config)
    service.start()
    yield service
    service.shutdown()


def _finish_one(store, spec=None):
    spec = spec or ExperimentSpec("[[5,1,3]]", placer="center")
    store.submit(spec)
    job = store.claim("w0")
    cell = CellResult(
        circuit=spec.circuit, mapper=spec.mapper, placer="center",
        latency=100.0, ideal_latency=80.0, routing_seconds=0.05,
        route_cache_hits=2, route_cache_misses=2,
    )
    store.complete(job.id, cell, stage_seconds={"place": 0.1, "simulate": 0.2})
    return job


class TestHealthz:
    def test_health_reports_version_schema_and_workers(self, service):
        import repro

        health = ServiceClient(service.url).health()
        assert health["status"] == "ok"
        assert health["version"] == repro.__version__
        assert health["schema_version"] == SCHEMA_VERSION
        assert health["workers_expected"] == 1
        assert health["workers"] >= 0
        assert health["queue_depth"] == 0


class TestMetricsEndpoints:
    def test_default_scrape_is_valid_text_exposition(self, service):
        text = ServiceClient(service.url).metrics_text()
        families = parse_exposition(text)
        histograms = [n for n, f in families.items() if f.type == "histogram"]
        assert len(histograms) >= 3, (
            "the exposition must carry queue-wait, wall and per-stage "
            f"histograms even on an idle service; got {histograms}"
        )
        assert families["qspr_queue_depth"].type == "gauge"
        assert families["qspr_store_schema_version"].samples[0][2] == SCHEMA_VERSION

    def test_metrics_json_serves_the_json_document(self, service):
        document = ServiceClient(service.url).metrics()
        assert document["queue_depth"] == 0
        assert "throughput_per_minute" in document

    def test_accept_json_negotiates_on_slash_metrics(self, service):
        request = urllib.request.Request(
            service.url + "/metrics", headers={"Accept": "application/json"}
        )
        with urllib.request.urlopen(request) as response:
            assert response.headers["Content-Type"] == "application/json"
            assert "queue_depth" in json.loads(response.read())

    def test_text_scrape_content_type_and_request_id(self, service):
        request = urllib.request.Request(
            service.url + "/metrics", headers={"Accept": "text/plain"}
        )
        with urllib.request.urlopen(request) as response:
            assert response.headers["Content-Type"].startswith("text/plain; version=0.0.4")
            assert response.headers["X-Request-Id"]

    def test_finished_jobs_fill_the_histograms(self, config):
        store = JobStore(config.db_path)
        _finish_one(store)
        families = parse_exposition(render_prometheus(store))
        buckets, sum_value, count = histogram_series(
            families["qspr_job_wall_seconds"]
        )
        counts = [c for _, c in buckets]
        assert count == 1 and counts == sorted(counts)
        stage_family = families["qspr_stage_duration_seconds"]
        _, place_sum, place_count = histogram_series(
            stage_family, labels={"stage": "place"}
        )
        assert place_count == 1
        assert place_sum == pytest.approx(0.1)

    def test_route_lookups_count_hits_and_misses(self, config):
        store = JobStore(config.db_path)
        _finish_one(store)
        families = parse_exposition(render_prometheus(store))
        lookups = {
            labels["result"]: value
            for _, labels, value in families["qspr_route_cache_lookups_total"].samples
        }
        assert lookups == {"hit": 2, "miss": 2}
        # One route table, one family: no per-layer split to duplicate it.
        route_families = [n for n in families if n.startswith("qspr_route_cache_")]
        assert route_families == ["qspr_route_cache_lookups_total"]
        document = service_metrics(store)
        assert document["route_cache"] == {"hits": 2, "misses": 2, "hit_rate": 0.5}


class TestServiceMetricsAggregates:
    def test_empty_store_has_zeroed_aggregates(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        document = service_metrics(store)
        assert document["jobs"]["total"] == 0
        assert document["throughput_per_minute"] == 0
        assert document["wall_seconds"] == {"total": 0.0, "mean": 0.0}
        assert document["route_cache"]["hit_rate"] == 0.0
        # The exposition renders too (zero-filled histograms, no division).
        assert "qspr_job_wall_seconds_count 0" in render_prometheus(store)

    def test_throughput_counts_only_the_window(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        _finish_one(store)
        now = time.time()
        assert service_metrics(store, now=now)["throughput_per_minute"] == 1
        assert service_metrics(store, now=now + 3600)["throughput_per_minute"] == 0

    def test_finished_at_index_exists(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        with sqlite3.connect(store.db_path) as conn:
            names = {
                row[0]
                for row in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'index'"
                )
            }
        assert "idx_jobs_finished_at" in names


# Genuinely distinct specs for queue flooding: MVFB keeps the random seed
# in its key, so seed-varied payloads do not dedup into one job.  Each is a
# full m=25 search (about 0.1 s), because a submit wakes the idle worker: a
# center-placed job maps faster than the next submission's round trip, so
# a flood of those can find the queue empty at every post.
_FLOOD_SPECS = tuple(
    {**SPEC_PAYLOAD, "placer": "mvfb", "num_seeds": 25, "random_seed": seed}
    for seed in range(6)
)


def _submit_until_429(client):
    """Flood distinct specs until the watermark trips; return the 429.

    With one worker, at most one job can leave the queue per mapping (a
    claim moves it to ``running``).  While the first job maps, the second
    waits in the queue, so the third submission trips a watermark of 1.
    """
    for payload in _FLOOD_SPECS:
        try:
            client.submit(payload)
        except ServiceError as exc:
            return exc
    pytest.fail(
        f"{len(_FLOOD_SPECS)} rapid submissions never tripped the watermark"
    )


class TestAdmissionControl:
    def test_saturated_queue_is_429_with_retry_after(self, tmp_path):
        config = ServiceConfig(
            port=0, use_threads=True, workers=1, poll_interval=0.05,
            max_queue_depth=1, retry_after_seconds=0.1,
        ).under(tmp_path)
        service = MappingService(config)
        service.start()
        try:
            rejected = _submit_until_429(
                ServiceClient(service.url, max_submit_retries=0)
            )
            assert rejected.status == 429
            assert rejected.retry_after >= 1.0  # header is ceil()ed
        finally:
            service.shutdown()

    def test_client_retries_until_the_queue_drains(self, tmp_path):
        config = ServiceConfig(
            port=0, use_threads=True, workers=1, poll_interval=0.05,
            max_queue_depth=1, retry_after_seconds=0.2,
        ).under(tmp_path)
        service = MappingService(config)
        service.start()
        try:
            _submit_until_429(ServiceClient(service.url, max_submit_retries=0))
            # The queue is saturated; the service's own worker drains it.
            # A retrying client must ride the Retry-After backoff through
            # the 429s to acceptance.
            retrier = ServiceClient(service.url, max_submit_retries=200)
            accepted = retrier.submit({**SPEC_PAYLOAD, "circuit": "[[9,1,3]]"})
            assert accepted["created"] == 1
        finally:
            service.shutdown()

    def test_admission_off_by_default(self, service):
        client = ServiceClient(service.url)
        for payload in _FLOOD_SPECS[:3]:
            client.submit(payload)


def _raw_request(
    method: str, path: str, body: bytes = b"", *, length: str | None = None
) -> bytes:
    """One HTTP/1.1 request as bytes; ``length`` overrides Content-Length."""
    length = str(len(body)) if length is None else length
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
        f"Content-Type: application/json\r\nContent-Length: {length}\r\n\r\n"
    )
    return head.encode() + body


def _raw_exchange(url: str, request: bytes) -> tuple[int, dict, bytes]:
    """Send raw request bytes; returns the status, headers and body."""
    parts = urllib.parse.urlsplit(url)
    with socket.create_connection((parts.hostname, parts.port), timeout=10.0) as conn:
        conn.sendall(request)
        response = b""
        while chunk := conn.recv(4096):
            response += chunk
    head, _, body = response.partition(b"\r\n\r\n")
    assert head, "the server closed the connection without a response"
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    return int(status_line.split(" ", 2)[1]), headers, body


def _spec_request(fields: bytes) -> bytes:
    """``POST /jobs`` of a ``[[5,1,3]]`` spec with extra JSON ``fields``."""
    return _raw_request("POST", "/jobs", b'{"circuit": "[[5,1,3]]", %s}' % fields)


#: Requests the API must answer with a 400 and a logged access record; each
#: one but the first used to drop the connection (or list every job).
MALFORMED_REQUESTS = {
    "content-length-abc": (
        _raw_request("POST", "/jobs", b"{}", length="abc"),
        "Content-Length must be an integer",
    ),
    "circuit-int": (
        _raw_request("POST", "/jobs", b'{"circuit": 5}'), "circuit must be a string"
    ),
    "circuit-null": (
        _raw_request("POST", "/jobs", b'{"circuit": null}'), "circuit must be a string"
    ),
    "circuit-list": (
        _raw_request("POST", "/jobs", b'{"circuit": ["a"]}'), "circuit must be a string"
    ),
    "sweep-circuits-int": (
        _raw_request("POST", "/jobs", b'{"sweep": {"circuits": [1, 2]}}'),
        "circuit must be a string",
    ),
    "circuit-directory": (
        _raw_request("POST", "/jobs", b'{"circuit": "/"}'), "not a QASM file"
    ),
    "circuit-name-too-long": (
        _raw_request("POST", "/jobs", b'{"circuit": "%s"}' % (b"x" * 5000)),
        "not a QASM file",
    ),
    "circuit-bad-parameter": (
        _raw_request("POST", "/jobs", b'{"circuit": "random:bad"}'),
        "bad parameter segment",
    ),
    "limit-overflow": (
        _raw_request("GET", "/jobs?limit=99999999999999999999"),
        "limit must be between 1 and",
    ),
    "limit-negative": (
        _raw_request("GET", "/jobs?limit=-5"), "limit must be between 1 and"
    ),
    "limit-zero": (_raw_request("GET", "/jobs?limit=0"), "limit must be between 1 and"),
    # Spec fields of the wrong type or out of range: each one used to be
    # accepted, then run as something else or fail in the worker.
    "barriers-string": (
        _spec_request(b'"barrier_scheduling": "false"'), "barrier_scheduling must be a boolean"
    ),
    "turn-aware-string": (_spec_request(b'"turn_aware": "no"'), "turn_aware must be a boolean"),
    "num-seeds-float": (_spec_request(b'"num_seeds": 2.5'), "num_seeds must be an integer"),
    "num-seeds-bool": (_spec_request(b'"num_seeds": true'), "num_seeds must be an integer"),
    "num-placements-zero": (
        _spec_request(b'"num_placements": 0'), "num_placements must be at least 1"
    ),
    "capacity-float": (
        _spec_request(b'"channel_capacity": 1.5'), "channel_capacity must be an integer"
    ),
    "capacity-huge": (
        _spec_request(b'"channel_capacity": 1000000000'), "channel_capacity must be at most 64"
    ),
    "fabric-rows-zero": (
        _spec_request(b'"fabric": {"junction_rows": 0}'), "junction_rows must be at least 1"
    ),
    "fabric-rows-string": (
        _spec_request(b'"fabric": {"junction_rows": "4"}'), "junction_rows must be an integer"
    ),
    "sweep-num-seeds-float": (
        _raw_request("POST", "/jobs", b'{"sweep": {"circuits": "[[5,1,3]]", "num_seeds": 2.5}}'),
        "'num_seeds' must be an integer",
    ),
}

def _last_access_log_record(log_path) -> dict:
    # The access-log record lands just *after* the response is sent, so give
    # the handler thread a moment to write it.
    deadline = time.monotonic() + 5.0
    requests: list[dict] = []
    while not requests and time.monotonic() < deadline:
        requests = [r for r in read_jsonl(log_path) if r["event"] == "http.request"]
        if not requests:
            time.sleep(0.02)
    assert requests, "every request must produce one access-log record"
    return requests[-1]


class TestStructuredLogs:
    def test_one_job_id_correlates_submit_to_done(self, config, service):
        client = ServiceClient(service.url)
        submitted = client.submit(SPEC_PAYLOAD)
        job_id = submitted["jobs"][0]["id"]
        assert submitted["request_id"]
        client.wait(job_id, timeout=120)
        # The log file is shared by the API thread and the worker.
        records = [
            r for r in read_jsonl(config.log_path) if r.get("job_id") == job_id
        ]
        events = [r["event"] for r in records]
        assert events[0] == "job.submitted"
        assert "job.claimed" in events
        assert "pipeline.stage" in events
        assert events[-1] == "job.done"
        stage_names = {
            r["stage"] for r in records if r["event"] == "pipeline.stage"
        }
        assert {"build-qidg", "place", "simulate"} <= stage_names

    def test_http_requests_are_access_logged_with_request_ids(
        self, config, service
    ):
        ServiceClient(service.url).health()
        record = _last_access_log_record(config.log_path)
        assert record["path"] == "/healthz"
        assert record["status"] == 200
        assert record["request_id"]
        assert record["duration_ms"] >= 0.0

    @pytest.mark.parametrize(
        ("request_bytes", "error"),
        list(MALFORMED_REQUESTS.values()),
        ids=list(MALFORMED_REQUESTS),
    )
    def test_malformed_request_is_a_logged_400(
        self, config, service, request_bytes, error
    ):
        status, headers, body = _raw_exchange(service.url, request_bytes)
        assert status == 400, body
        assert error in json.loads(body)["error"]
        method, path = request_bytes.decode("latin-1").split(" ", 2)[:2]
        record = _last_access_log_record(config.log_path)
        assert (record["method"], record["path"], record["status"]) == (method, path, 400)
        assert record["request_id"] == headers["X-Request-Id"]

    def test_unexpected_fault_is_a_logged_500(self, config, service, monkeypatch):
        def broken_health():
            raise RuntimeError("store unreadable")

        monkeypatch.setattr(service, "health", broken_health)
        status, headers, body = _raw_exchange(
            service.url, _raw_request("GET", "/healthz")
        )
        document = json.loads(body)
        assert status == 500
        assert "RuntimeError: store unreadable" in document["error"]
        assert document["request_id"] == headers["X-Request-Id"]
        record = _last_access_log_record(config.log_path)
        assert (record["path"], record["status"]) == ("/healthz", 500)
        assert record["request_id"] == document["request_id"]
        (fault,) = [r for r in read_jsonl(config.log_path) if r["event"] == "http.error"]
        assert fault["request_id"] == document["request_id"]
        assert "RuntimeError: store unreadable" in fault["traceback"]

    def test_log_path_none_disables_logging(self, tmp_path):
        config = ServiceConfig(
            port=0, use_threads=True, workers=1, log_path=None
        ).under(tmp_path)
        service = MappingService(config)
        service.start()
        try:
            ServiceClient(service.url).health()
            assert not (tmp_path / "service.log.jsonl").exists()
        finally:
            service.shutdown()


class TestSpecsWrittenBeforeTheChecks:
    """A store row whose spec today's checks refuse, as an older build wrote it."""

    def _write_row(self, store, job_id, spec_fields):
        record = {**ExperimentSpec("[[5,1,3]]", placer="center").to_dict(), **spec_fields}
        with sqlite3.connect(store.db_path) as conn:
            conn.execute(
                "INSERT INTO jobs (id, cache_key, spec, status, created_at) "
                "VALUES (?, ?, ?, 'queued', ?)",
                (job_id, job_id, json.dumps(record), time.time()),
            )

    def test_listed_then_failed_by_its_worker_with_the_checks_message(self, tmp_path):
        from repro.service.worker import worker_loop

        store = JobStore(tmp_path / "jobs.sqlite3")
        self._write_row(store, "stale", {"barrier_scheduling": "false"})
        valid, _ = store.submit(
            ExperimentSpec("[[7,1,3]]", placer="center", fabric=FabricCell(4, 4))
        )
        listed = store.list_jobs()
        assert [job.id for job in listed] == ["stale", valid.id]
        assert listed[0].to_dict()["spec"]["barrier_scheduling"] == "false"

        assert worker_loop(str(store.db_path), None, "w0", max_jobs=2) == 2
        stale = store.get("stale")
        assert stale.status == "failed"
        assert "barrier_scheduling must be a boolean, got 'false'" in stale.error
        assert store.get(valid.id).status == "done"

    def test_service_lists_the_store_and_fails_the_job(self, config):
        store = JobStore(config.db_path)
        self._write_row(store, "stale", {"fabric": {"junction_rows": 0}})
        service = MappingService(config)
        service.start()
        try:
            client = ServiceClient(service.url)
            done = client.wait("stale", timeout=30)
            assert done["status"] == "failed"
            assert "junction_rows must be at least 1" in done["error"]
            (job,) = client.jobs()
            assert job["spec"]["fabric"]["junction_rows"] == 0
        finally:
            service.shutdown()


class TestRetention:
    def test_prune_deletes_only_old_terminal_jobs(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        finished = _finish_one(store)
        store.submit(ExperimentSpec("[[7,1,3]]", placer="center"))  # queued
        now = time.time() + 8 * 86400
        assert store.prune(retention_days=7, now=now) == 1
        counts = store.counts()
        assert counts["done"] == 0
        assert counts["queued"] == 1
        assert store.prune(retention_days=7, now=now) == 0  # idempotent

    def test_prune_rejects_negative_retention(self, tmp_path):
        from repro.errors import MappingError

        store = JobStore(tmp_path / "jobs.sqlite3")
        with pytest.raises(MappingError):
            store.prune(retention_days=-1)

    def test_histograms_survive_pruning(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        _finish_one(store)
        store.prune(retention_days=0, now=time.time() + 60)
        assert store.histograms()["wall"]["count"] == 1


class TestSchemaMigration:
    def test_v1_store_is_migrated_in_place(self, tmp_path):
        db_path = tmp_path / "jobs.sqlite3"
        # A version-1 database: the base schema, no histogram tables, no
        # recorded schema_version (absence means 1).
        with sqlite3.connect(db_path) as conn:
            conn.executescript(_SCHEMA)
        store = JobStore(db_path)
        assert store.schema_version() == SCHEMA_VERSION
        with sqlite3.connect(db_path) as conn:
            tables = {
                row[0]
                for row in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            }
        assert {"hist_buckets", "hist_sums"} <= tables
        _finish_one(store)  # the migrated store records observations

    def test_reopening_is_idempotent(self, tmp_path):
        db_path = tmp_path / "jobs.sqlite3"
        JobStore(db_path)
        store = JobStore(db_path)
        assert store.schema_version() == SCHEMA_VERSION
