"""JobStore lifecycle, content-hash dedup, crash-safe orphan requeue and
the store's one connection per process."""

from __future__ import annotations

import os
import signal
import sqlite3
import sys
import threading
import time

import pytest

from repro.errors import MappingError
from repro.runner import CellResult, ExperimentSpec, FabricCell, ResultCache
from repro.service import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobStore,
    ServiceConfig,
    WorkerPool,
)
from repro.service.store import SQLITE_LOCK

TINY = FabricCell(junction_rows=4, junction_cols=4)


def _spec(**overrides) -> ExperimentSpec:
    defaults = dict(circuit="[[5,1,3]]", placer="center", fabric=TINY)
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


def _result() -> CellResult:
    return CellResult(circuit="[[5,1,3]]", mapper="qspr", placer="center", latency=730.0)


@pytest.fixture
def store(tmp_path) -> JobStore:
    return JobStore(tmp_path / "jobs.sqlite3")


class TestLifecycle:
    def test_submit_claim_complete(self, store):
        job, created = store.submit(_spec())
        assert created and job.status == QUEUED and job.attempts == 0

        claimed = store.claim("w0", now=100.0, lease_seconds=60.0)
        assert claimed is not None and claimed.id == job.id
        assert claimed.status == RUNNING
        assert claimed.worker == "w0" and claimed.attempts == 1
        assert claimed.lease_expires_at == pytest.approx(160.0)
        assert store.claim("w1") is None  # queue drained

        done = store.complete(job.id, _result(), stage_seconds={"simulate": 0.5})
        assert done.status == DONE
        assert done.result["latency"] == 730.0
        assert done.stage_seconds == {"simulate": 0.5}
        assert done.is_terminal

    def test_fail(self, store):
        job, _ = store.submit(_spec())
        store.claim("w0")
        failed = store.fail(job.id, "boom")
        assert failed.status == FAILED and failed.error == "boom"

    def test_claim_order_is_submission_order(self, store):
        first, _ = store.submit(_spec(), now=1.0)
        second, _ = store.submit(_spec(num_seeds=7, placer="mvfb"), now=2.0)
        assert store.claim("w0").id == first.id
        assert store.claim("w0").id == second.id

    def test_release_requeues_a_running_job(self, store):
        job, _ = store.submit(_spec())
        store.claim("w0")
        released = store.release(job.id)
        assert released.status == QUEUED and released.worker is None
        assert store.claim("w1").id == job.id

    def test_get_unknown_job_raises(self, store):
        with pytest.raises(MappingError, match="unknown job"):
            store.get("absent")

    def test_list_jobs_and_counts(self, store):
        store.submit(_spec())
        job, _ = store.submit(_spec(num_seeds=9, placer="mvfb"))
        store.claim("w0")
        assert [j.status for j in store.list_jobs()] == [RUNNING, QUEUED]
        assert [j.id for j in store.list_jobs(status=QUEUED)] == [job.id]
        counts = store.counts()
        assert counts[QUEUED] == 1 and counts[RUNNING] == 1 and counts[DONE] == 0
        with pytest.raises(MappingError, match="unknown status"):
            store.list_jobs(status="sleeping")


class TestCancellation:
    def test_cancel_queued_job(self, store):
        job, _ = store.submit(_spec())
        cancelled = store.cancel(job.id)
        assert cancelled.status == CANCELLED
        assert store.claim("w0") is None

    def test_cancel_running_job_lands_on_completion(self, store):
        job, _ = store.submit(_spec())
        store.claim("w0")
        flagged = store.cancel(job.id)
        assert flagged.status == RUNNING and flagged.cancel_requested
        finished = store.complete(job.id, _result())
        assert finished.status == CANCELLED

    def test_cancelled_then_orphaned_job_is_not_re_executed(self, store):
        # Cancel lands while the job runs; the worker then dies and the job
        # is orphan-requeued with the cancel request still pending.  The next
        # claim must finalise it as cancelled, not hand it out again.
        job, _ = store.submit(_spec())
        store.claim("w0", now=100.0, lease_seconds=10.0)
        store.cancel(job.id)
        store.requeue_orphans(now=200.0)
        assert store.get(job.id).status == QUEUED
        assert store.claim("w1", now=201.0) is None
        assert store.get(job.id).status == CANCELLED

    def test_cancel_terminal_job_is_a_noop(self, store):
        job, _ = store.submit(_spec())
        store.claim("w0")
        store.complete(job.id, _result())
        assert store.cancel(job.id).status == DONE


class TestDedup:
    def test_resubmit_returns_existing_job(self, store):
        job, created = store.submit(_spec())
        again, created_again = store.submit(_spec())
        assert created and not created_again
        assert again.id == job.id
        assert store.counts()[QUEUED] == 1

    def test_normalised_specs_dedup(self, store):
        # The placer axis collapses for placerless mappers: same cache key.
        a, _ = store.submit(_spec(mapper="quale", placer="mvfb", num_seeds=5))
        b, created = store.submit(_spec(mapper="quale", placer="center", num_seeds=1))
        assert not created and a.id == b.id

    def test_done_job_still_dedups(self, store):
        job, _ = store.submit(_spec())
        store.claim("w0")
        store.complete(job.id, _result())
        again, created = store.submit(_spec())
        assert not created and again.status == DONE
        assert again.result["latency"] == 730.0

    def test_failed_job_does_not_dedup(self, store):
        job, _ = store.submit(_spec())
        store.claim("w0")
        store.fail(job.id, "boom")
        retry, created = store.submit(_spec())
        assert created and retry.id != job.id and retry.status == QUEUED

    def test_result_cache_hit_is_served_without_a_worker(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.store(_spec(), _result())
        store = JobStore(tmp_path / "jobs.sqlite3", cache=cache)
        job, created = store.submit(_spec())
        assert created and job.status == DONE
        assert job.result["latency"] == 730.0
        assert job.result["from_cache"] is True
        assert store.claim("w0") is None  # nothing reached the queue


class TestOrphanRequeue:
    def test_expired_lease_goes_back_to_queue(self, store):
        job, _ = store.submit(_spec())
        store.claim("w0", now=100.0, lease_seconds=50.0)
        assert store.requeue_orphans(now=120.0) == (0, 0)  # lease still live
        assert store.requeue_orphans(now=151.0) == (1, 0)
        recovered = store.get(job.id)
        assert recovered.status == QUEUED and recovered.worker is None
        assert recovered.attempts == 1  # the burned claim is remembered

    def test_too_many_orphanings_fail_the_job(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3", max_attempts=2)
        job, _ = store.submit(_spec())
        for round_ in range(2):
            store.claim("w0", now=100.0 * (round_ + 1), lease_seconds=10.0)
            store.requeue_orphans(now=100.0 * (round_ + 1) + 11.0)
        final = store.get(job.id)
        assert final.status == FAILED
        assert "orphaned" in final.error

    def test_requeue_survives_store_reopen(self, tmp_path):
        # Simulates a crashed service: a new JobStore over the same file
        # sees the stranded running job and recovers it.
        path = tmp_path / "jobs.sqlite3"
        first = JobStore(path)
        job, _ = first.submit(_spec())
        first.claim("w0", now=100.0, lease_seconds=10.0)
        reopened = JobStore(path)
        assert reopened.requeue_orphans(now=200.0) == (1, 0)
        assert reopened.get(job.id).status == QUEUED


class TestStaleWorkerWrites:
    def test_stale_completion_after_requeue_is_dropped(self, store):
        job, _ = store.submit(_spec())
        store.claim("w0", now=100.0, lease_seconds=10.0)
        store.requeue_orphans(now=200.0)  # w0 presumed dead
        store.claim("w1", now=201.0)      # second attempt starts

        # w0 was not dead after all and reports its (now stale) outcome.
        stale = store.complete(job.id, _result(), worker="w0")
        assert stale.status == RUNNING and stale.worker == "w1"

        fresh = store.complete(job.id, _result(), worker="w1")
        assert fresh.status == DONE

    def test_stale_failure_is_dropped(self, store):
        job, _ = store.submit(_spec())
        store.claim("w0", now=100.0, lease_seconds=10.0)
        store.requeue_orphans(now=200.0)
        assert store.fail(job.id, "stale boom", worker="w0").status == QUEUED
        assert store.get(job.id).error is None


class TestDoneAggregates:
    def test_sql_aggregation_matches_job_contents(self, store):
        job, _ = store.submit(_spec())
        store.claim("w0", now=100.0)
        store.complete(
            job.id,
            _result(),
            stage_seconds={"simulate": 0.5, "simulate.routing": 0.2},
            now=104.0,
        )
        aggregates = store.done_aggregates(now=110.0)
        assert aggregates["finished"] == 1
        assert aggregates["finished_recently"] == 1
        assert aggregates["wall_total"] == pytest.approx(4.0)
        assert aggregates["latency_total"] == pytest.approx(730.0)
        assert aggregates["stage_totals"] == {"simulate": 0.5, "simulate.routing": 0.2}
        # Outside the 60 s window the throughput gauge drops to zero.
        assert store.done_aggregates(now=1000.0)["finished_recently"] == 0


class TestShutdownFlag:
    def test_round_trip(self, store):
        assert not store.shutdown_requested()
        store.request_shutdown()
        assert store.shutdown_requested()
        store.clear_shutdown()
        assert not store.shutdown_requested()


@pytest.fixture
def connects(monkeypatch) -> list:
    """Every ``sqlite3.connect`` call made from here on, by database path."""
    calls: list = []
    connect = sqlite3.connect

    def counting_connect(database, *args, **kwargs):
        calls.append(database)
        return connect(database, *args, **kwargs)

    monkeypatch.setattr(sqlite3, "connect", counting_connect)
    return calls


class TestConnections:
    def test_a_thread_pool_opens_one_connection_per_store(self, tmp_path, connects):
        config = ServiceConfig(
            workers=2, use_threads=True, poll_interval=0.01
        ).under(tmp_path)
        pool = WorkerPool(config)
        jobs = [
            pool.store.submit(_spec(placer="mvfb", num_seeds=seeds))[0]
            for seeds in range(1, 6)
        ]
        pool.start()
        try:
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                if all(pool.store.get(job.id).is_terminal for job in jobs):
                    break
                time.sleep(0.05)
        finally:
            pool.stop(timeout=5.0)
        # The pool's store and each worker_loop's own, whatever the number
        # of jobs, claims and polls.
        assert len(connects) == 3
        assert [pool.store.get(job.id).status for job in jobs] == [DONE] * 5

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork()")
    def test_a_forked_child_opens_its_own_connection(self, store, connects):
        store.submit(_spec())
        inherited, opened = store._conn, len(connects)
        with SQLITE_LOCK:  # as the pool forks: no thread inside SQLite
            pid = os.fork()
        if pid == 0:  # the child reports through its exit code only
            code = 1
            try:
                _, created = store.submit(_spec(placer="mvfb", num_seeds=2))
                claimed = store.claim("child")
                own = store._conn
                store.close()
                code = 0 if (
                    created
                    and claimed is not None
                    and own is not inherited
                    and len(connects) == opened + 1
                ) else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30.0
        while not (waited := os.waitpid(pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(waited[1]) == 0
        assert store._conn is inherited and len(connects) == opened
        _, created = store.submit(_spec(placer="mvfb", num_seeds=3))
        assert created and store.claim("parent") is not None
        counts = store.counts()
        assert (counts[QUEUED], counts[RUNNING]) == (1, 2)
        with store._read() as conn:
            assert conn.execute("PRAGMA integrity_check").fetchone()[0] == "ok"

    def test_threads_share_the_connection_without_losing_a_job(self, store, connects):
        store.counts()
        opened = len(connects)
        claimed: list[str] = []

        def work(index: int) -> None:
            worker = f"t{index}"
            for seeds in range(1, 21):
                store.submit(_spec(placer="mvfb", num_seeds=seeds, random_seed=index))
                job = store.claim(worker)
                if job is not None:
                    claimed.append(job.id)
                    store.complete(job.id, _result(), worker=worker)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        counts = store.counts()
        assert len(set(claimed)) == len(claimed) == counts[DONE]
        assert counts[DONE] + counts[QUEUED] == 120
        assert len(connects) == opened

    def test_prune_vacuums_beside_an_idle_connection(self, tmp_path):
        path = tmp_path / "jobs.sqlite3"
        pruner, idle = JobStore(path), JobStore(path)
        job, _ = pruner.submit(_spec())
        pruner.claim("w0", now=100.0)
        pruner.complete(job.id, _result(), stage_seconds={"simulate": 0.5}, now=101.0)
        # The idle store has made every kind of read and holds its connection.
        assert idle.get(job.id).status == DONE
        assert idle.list_jobs() and idle.counts()[DONE] == 1
        assert idle.histograms() and idle.done_aggregates()["finished"] == 1
        assert not idle.shutdown_requested() and idle.schema_version() >= 2
        assert idle._conn is not None
        assert pruner.prune(retention_days=1.0) == 1
        # No read outlived its statement: the idle connection holds no
        # snapshot, so a full checkpoint does not find it busy.
        with pruner._read() as conn:
            busy, _, _ = conn.execute("PRAGMA wal_checkpoint(TRUNCATE)").fetchone()
        assert busy == 0
        assert idle.counts()[DONE] == 0

    def test_close_and_the_next_call_opens_a_new_connection(self, store, connects):
        store.counts()
        closed, opened = store._conn, len(connects)
        store.close()
        with pytest.raises(sqlite3.ProgrammingError):
            closed.execute("SELECT 1")
        assert len(connects) == opened
        store.submit(_spec())
        assert store.counts()[QUEUED] == 1
        assert len(connects) == opened + 1 and store._conn is not closed

    def test_a_failed_write_leaves_no_transaction_open(self, store):
        with pytest.raises(MappingError, match="unknown job"):
            store.cancel("absent")
        assert not store._conn.in_transaction
        other = JobStore(store.db_path)
        assert other.submit(_spec())[1]
