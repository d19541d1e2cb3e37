"""Push dispatch: a commit wakes an idle worker; crashes lose no job.

Every pool here polls only every 5 s, so a job that starts, or a pool that
stops, within a second shows that the wake, not the poll, moved the worker.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.runner import ExperimentSpec, execute_cell
from repro.service import (
    DONE,
    RUNNING,
    MappingService,
    ServiceClient,
    ServiceConfig,
    WorkerPool,
)

#: Long enough that a lost wake would show; the tests never wait for it.
SLOW_POLL_S = 5.0

TINY_PAYLOAD = {
    "circuit": "[[5,1,3]]",
    "placer": "center",
    "fabric": {"junction_rows": 4, "junction_cols": 4},
}

#: Eight distinct tiny jobs: four circuits, each under QSPR and QUALE.
STREAM_PAYLOADS = [
    {**TINY_PAYLOAD, "circuit": circuit, "mapper": mapper}
    for circuit in ("[[5,1,3]]", "[[7,1,3]]", "ghz", "random-layered:q=4:d=3")
    for mapper in ("qspr", "quale")
]


def _await_status(store, job_id: str, status: str, timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while store.get(job_id).status != status:
        assert time.monotonic() < deadline, f"never reached {status}: {store.get(job_id)}"
        time.sleep(0.005)


@pytest.fixture(params=[False, True], ids=["process", "thread"])
def idle_service(request, tmp_path):
    # Two workers: a wake must reach every idle worker, not just one.
    config = ServiceConfig(
        port=0, workers=2, use_threads=request.param, poll_interval=SLOW_POLL_S
    ).under(tmp_path)
    service = MappingService(config)
    service.start()
    assert service.pool.mode == ("thread" if request.param else "process")
    time.sleep(0.3)  # the workers' first claims found nothing: they now wait
    yield service
    service.shutdown()


class TestPromptDispatch:
    def test_submit_wakes_an_idle_worker(self, idle_service):
        client = ServiceClient(idle_service.url)
        (job,) = client.submit(TINY_PAYLOAD)["jobs"]
        done = client.wait(job["id"], timeout=60.0)
        assert done["status"] == "done", done.get("error")
        assert done["started_at"] - done["created_at"] < 1.0

    def test_two_workers_drain_a_stream_of_distinct_jobs(self, idle_service):
        client = ServiceClient(idle_service.url)
        job_ids = []
        for payload in STREAM_PAYLOADS:
            (job,) = client.submit(payload)["jobs"]
            job_ids.append(job["id"])
            time.sleep(0.01)
        assert len(set(job_ids)) == len(STREAM_PAYLOADS)
        finished = client.wait(job_ids, timeout=60.0)
        for payload, job in zip(STREAM_PAYLOADS, finished):
            assert job["status"] == "done", job.get("error")
            assert job["attempts"] == 1
            spec = ExperimentSpec.from_dict(payload)
            assert job["result"]["latency"] == execute_cell(spec).latency

    def test_stop_returns_at_once_on_an_idle_pool(self, idle_service):
        started = time.monotonic()
        idle_service.pool.stop()
        assert time.monotonic() - started < 1.0
        assert idle_service.pool.alive_workers() == 0


class TestWorkerCrash:
    def test_job_of_a_killed_worker_runs_once_more_to_done(self, tmp_path):
        spec = ExperimentSpec("[[19,1,7]]", placer="center")
        config = ServiceConfig(
            workers=1, lease_seconds=1.0, poll_interval=SLOW_POLL_S
        ).under(tmp_path)
        pool = WorkerPool(config)
        job, _ = pool.store.submit(spec)
        pool.start()
        try:
            assert pool.mode == "process"
            _await_status(pool.store, job.id, RUNNING, timeout=30.0)
            (worker,) = pool._workers
            os.kill(worker.pid, signal.SIGKILL)
            killed = time.monotonic()
            worker.join(5.0)
            assert not worker.is_alive()
            assert pool.store.get(job.id).status == RUNNING  # killed mid-job
            # The supervisor requeues the job once its 1 s lease expires and
            # wakes the respawned worker, which would otherwise sleep 5 s.
            _await_status(pool.store, job.id, DONE, timeout=30.0)
            assert time.monotonic() - killed < 4.0
        finally:
            pool.stop(timeout=5.0)
        same_spec = [j for j in pool.store.list_jobs() if j.cache_key == spec.cache_key()]
        assert [j.id for j in same_spec] == [job.id]
        final = same_spec[0]
        assert final.status == DONE and final.attempts == 2
        assert final.result["latency"] == execute_cell(spec).latency

    def test_killed_idle_worker_does_not_block_submits(self, tmp_path):
        config = ServiceConfig(
            port=0, lease_seconds=1.0, poll_interval=SLOW_POLL_S
        ).under(tmp_path)
        service = MappingService(config)
        service.start()
        submitted: list[dict] = []
        try:
            assert service.pool.mode == "process"
            time.sleep(0.3)  # the worker now waits on the wake event
            (worker,) = service.pool._workers
            os.kill(worker.pid, signal.SIGKILL)
            worker.join(5.0)
            # A waiter killed inside multiprocessing.Event.wait() leaves every
            # later set() blocked; the pool's wake event must not.
            submit = threading.Thread(
                target=lambda: submitted.append(
                    service.submit_payload(TINY_PAYLOAD)
                ),
                daemon=True,
            )
            submit.start()
            submit.join(5.0)
            assert submitted, "a submit after a worker was killed must not block"
            (job,) = submitted[0]["jobs"]
            _await_status(service.store, job["id"], DONE, timeout=30.0)
        finally:
            if submitted:  # a blocked wake would block shutdown too
                service.shutdown()
