"""Worker loop and pool: execution, fabric reuse, failures, interruption."""

from __future__ import annotations

import threading
import time

import pytest

from repro.ops.logging import read_jsonl
from repro.runner import ExperimentSpec, FabricCell, ResultCache
from repro.service import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobStore,
    ServiceConfig,
    WorkerPool,
    execute_job,
    worker_loop,
)

TINY = FabricCell(junction_rows=4, junction_cols=4)


def _spec(**overrides) -> ExperimentSpec:
    defaults = dict(circuit="[[5,1,3]]", placer="center", fabric=TINY)
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestExecuteJob:
    def test_returns_result_and_stage_seconds(self):
        cell, stages = execute_job(_spec(), {})
        assert cell.latency > cell.ideal_latency > 0
        assert set(stages) >= {"build-qidg", "place", "simulate"}

    def test_fabric_memo_is_reused_across_jobs(self):
        fabrics = {}
        execute_job(_spec(), fabrics)
        (first,) = fabrics.values()
        execute_job(_spec(num_seeds=5, placer="mvfb"), fabrics)
        assert list(fabrics) == [TINY]
        assert fabrics[TINY] is first  # same built fabric, same compiled graphs

    def test_matches_direct_execution(self):
        from repro.runner import execute_cell

        direct = execute_cell(_spec())
        via_worker, _ = execute_job(_spec(), {})
        assert via_worker.latency == direct.latency
        assert via_worker.total_moves == direct.total_moves


class TestWorkerLoop:
    def test_drains_queue_then_honours_max_jobs(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        store.submit(_spec())
        store.submit(_spec(mapper="ideal"))
        executed = worker_loop(
            str(tmp_path / "jobs.sqlite3"), None, "w0", max_jobs=2, poll_interval=0.01
        )
        assert executed == 2
        assert [job.status for job in store.list_jobs()] == [DONE, DONE]

    def test_bad_job_fails_without_killing_worker(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        bad, _ = store.submit(_spec(circuit=str(tmp_path / "missing.qasm")))
        good, _ = store.submit(_spec())
        executed = worker_loop(
            str(tmp_path / "jobs.sqlite3"), None, "w0", max_jobs=2, poll_interval=0.01
        )
        assert executed == 2
        assert store.get(bad.id).status == FAILED
        assert "missing.qasm" in store.get(bad.id).error
        assert store.get(good.id).status == DONE

    def test_results_land_in_shared_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        store = JobStore(tmp_path / "jobs.sqlite3")
        store.submit(_spec())
        worker_loop(
            str(tmp_path / "jobs.sqlite3"), str(cache_dir), "w0",
            max_jobs=1, poll_interval=0.01,
        )
        hit = ResultCache(cache_dir).load(_spec())
        assert hit is not None and hit.latency > 0

    def test_stop_event_exits_idle_loop(self, tmp_path):
        JobStore(tmp_path / "jobs.sqlite3")
        stop = threading.Event()
        stop.set()
        executed = worker_loop(
            str(tmp_path / "jobs.sqlite3"), None, "w0",
            stop_event=stop, poll_interval=0.01,
        )
        assert executed == 0

    def test_shutdown_flag_exits_idle_loop(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        store.request_shutdown()
        executed = worker_loop(
            str(tmp_path / "jobs.sqlite3"), None, "w0", poll_interval=0.01
        )
        assert executed == 0

    def test_keyboard_interrupt_releases_claimed_job(self, tmp_path, monkeypatch):
        store = JobStore(tmp_path / "jobs.sqlite3")
        job, _ = store.submit(_spec())
        monkeypatch.setattr(
            "repro.service.worker.execute_job",
            lambda spec, fabrics=None: (_ for _ in ()).throw(KeyboardInterrupt()),
        )
        with pytest.raises(KeyboardInterrupt):
            worker_loop(str(tmp_path / "jobs.sqlite3"), None, "w0", poll_interval=0.01)
        # The in-flight job went back to the queue, not stranded in running.
        assert store.get(job.id).status == QUEUED


class TestOutcomeLogs:
    """The worker logs the outcome the store kept, not the one it sent."""

    def _run_one(self, tmp_path, monkeypatch, during_run, *, fails=False):
        """Map one job, calling ``during_run(store, job)`` mid-run; returns
        the store, the job and the log's events for the job."""
        db, log = tmp_path / "jobs.sqlite3", tmp_path / "service.log.jsonl"
        store = JobStore(db)
        job, _ = store.submit(_spec())

        def stand_in(spec, fabrics=None, **kwargs):
            during_run(store, job)
            if fails:
                raise ValueError("mapping failed")
            return execute_job(spec, fabrics, **kwargs)

        monkeypatch.setattr("repro.service.worker.execute_job", stand_in)
        worker_loop(
            str(db), None, "w0", max_jobs=1, poll_interval=0.01, log_path=str(log)
        )
        records = [r for r in read_jsonl(log) if r.get("job_id") == job.id]
        return store, job, records

    @staticmethod
    def _requeue(store, job):
        # What the supervisor does to a running job whose lease expired.
        assert store.requeue_orphans(now=time.time() + 3600) == (1, 0)

    @pytest.mark.parametrize("fails", [False, True], ids=["completed", "failed"])
    def test_a_job_requeued_mid_run_logs_stale(self, tmp_path, monkeypatch, fails):
        store, job, records = self._run_one(
            tmp_path, monkeypatch, self._requeue, fails=fails
        )
        events = [r["event"] for r in records]
        assert events[0] == "job.claimed"
        assert events[-1] == "job.stale"
        assert "job.done" not in events and "job.failed" not in events
        assert records[-1]["level"] == "warning"
        assert records[-1]["status"] == QUEUED == store.get(job.id).status

    def test_a_cancel_requested_mid_run_logs_cancelled(self, tmp_path, monkeypatch):
        store, job, records = self._run_one(
            tmp_path, monkeypatch, lambda store, job: store.cancel(job.id)
        )
        assert store.get(job.id).status == CANCELLED
        assert records[-1]["event"] == "job.cancelled"
        assert "job.done" not in [r["event"] for r in records]

    def test_a_kept_outcome_logs_done_or_failed(self, tmp_path, monkeypatch):
        def nothing(store, job):
            pass

        store, job, records = self._run_one(tmp_path / "a", monkeypatch, nothing)
        assert store.get(job.id).status == DONE
        assert records[-1]["event"] == "job.done"
        store, job, records = self._run_one(
            tmp_path / "b", monkeypatch, nothing, fails=True
        )
        assert store.get(job.id).status == FAILED
        assert records[-1]["event"] == "job.failed"


class TestWorkerPool:
    def test_thread_pool_executes_submissions(self, tmp_path):
        config = ServiceConfig(
            workers=2, use_threads=True, poll_interval=0.01
        ).under(tmp_path)
        pool = WorkerPool(config)
        jobs = [
            pool.store.submit(_spec())[0],
            pool.store.submit(_spec(mapper="ideal"))[0],
        ]
        pool.start()
        try:
            assert pool.mode == "thread" and pool.alive_workers() == 2
            deadline = threading.Event()
            for _ in range(400):  # up to ~20 s
                if all(pool.store.get(job.id).is_terminal for job in jobs):
                    break
                deadline.wait(0.05)
        finally:
            pool.stop(timeout=5.0)
        assert [pool.store.get(job.id).status for job in jobs] == [DONE, DONE]
        assert pool.alive_workers() == 0

    def test_supervisor_requeues_orphans_while_pool_runs(self, tmp_path):
        import time

        config = ServiceConfig(
            workers=1, use_threads=True, poll_interval=0.01, lease_seconds=1.0
        ).under(tmp_path)
        pool = WorkerPool(config)
        # A ghost worker claims the job and dies before the pool exists.  Its
        # lease is still live when start() runs its recovery pass, so only
        # the supervisor's periodic requeue can bring the job back.
        job, _ = pool.store.submit(_spec())
        assert pool.store.claim("ghost", lease_seconds=1.0) is not None
        pool.start()
        try:
            assert pool.store.get(job.id).status == RUNNING  # start() left it
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                if pool.store.get(job.id).status == DONE:
                    break
                time.sleep(0.05)
        finally:
            pool.stop(timeout=5.0)
        final = pool.store.get(job.id)
        assert final.status == DONE
        assert final.worker.startswith("thread-")  # a real worker re-ran it

    def test_stop_requeues_stranded_running_jobs(self, tmp_path):
        config = ServiceConfig(use_threads=True).under(tmp_path)
        pool = WorkerPool(config)
        job, _ = pool.store.submit(_spec())
        # Simulate a worker that died mid-job without ever heartbeating.
        pool.store.claim("ghost", lease_seconds=config.lease_seconds)
        pool.stop(timeout=0.1)
        assert pool.store.get(job.id).status == QUEUED
