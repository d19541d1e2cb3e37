"""SQLite-backed persistent job store.

The store is the durable heart of the mapping service: every submission,
claim and completion is one short WAL-mode SQLite transaction, so any number
of worker processes and API threads can share a single database file.  Each
:class:`JobStore` method opens its own connection — SQLite connections are
cheap, and this keeps the store safe to use from ``ThreadingHTTPServer``
request threads and worker processes alike.

Three properties matter beyond plain CRUD:

* **Atomic claims** — :meth:`JobStore.claim` pops the oldest queued job
  inside a ``BEGIN IMMEDIATE`` transaction, so two workers can never run the
  same job.
* **Content-hash dedup** — :meth:`JobStore.submit` keys every job by
  :meth:`~repro.runner.spec.ExperimentSpec.cache_key`.  Resubmitting a spec
  that is queued, running or done returns the existing job; a spec whose
  result already sits in the shared :class:`~repro.runner.cache.ResultCache`
  is enqueued directly in the ``done`` state without ever reaching a worker.
* **Crash-safe requeue** — a worker that dies mid-job leaves a ``running``
  row behind; once its lease expires, :meth:`JobStore.requeue_orphans` puts
  the job back in the queue (or fails it after ``max_attempts`` claims).

For observability the store also persists **fixed-bucket latency
histograms** (queue wait observed at claim, job wall time and per-stage
seconds observed at completion), merged by addition across workers and
restarts, and records its **schema version** in the ``meta`` table so
:data:`_MIGRATIONS` can evolve the layout idempotently — an old database
opened by a newer build is upgraded in place.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro.errors import MappingError, ReproError
from repro.runner.cache import ResultCache
from repro.runner.results import CellResult
from repro.runner.spec import ExperimentSpec, FabricCell
from repro.service.jobs import (
    ACTIVE_OR_DONE,
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    STATUSES,
    TERMINAL,
    Job,
    new_job_id,
)

#: Largest value of SQLite's signed 64-bit ``INTEGER``.
_SQLITE_MAX_INTEGER = 2**63 - 1

#: Held by any thread of this process while it is inside SQLite, and by the
#: worker pool while it forks a worker.  SQLite's mutexes do not survive
#: ``fork()``: a worker forked while another thread (an HTTP request, say)
#: held one inherits it locked and hangs in its first ``sqlite3.connect``.
#: Re-entrant, so the forked child, whose only thread holds it, can still
#: open its own store.
SQLITE_LOCK = threading.RLock()

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id               TEXT PRIMARY KEY,
    cache_key        TEXT NOT NULL,
    spec             TEXT NOT NULL,
    status           TEXT NOT NULL,
    created_at       REAL NOT NULL,
    started_at       REAL,
    finished_at      REAL,
    attempts         INTEGER NOT NULL DEFAULT 0,
    worker           TEXT,
    lease_expires_at REAL,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    result           TEXT,
    stage_seconds    TEXT,
    error            TEXT
);
CREATE INDEX IF NOT EXISTS idx_jobs_status ON jobs(status, created_at);
CREATE INDEX IF NOT EXISTS idx_jobs_cache_key ON jobs(cache_key);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""

#: Current job-store schema version (recorded in ``meta.schema_version``).
SCHEMA_VERSION = 2

#: Idempotent migrations, applied in version order on open.  Version 1 is
#: the base :data:`_SCHEMA`; each later entry lists the statements that take
#: a store from ``version - 1`` to ``version``.  Statements must be
#: re-runnable (``IF NOT EXISTS``) so a crash between "migrate" and "record
#: version" cannot wedge the store.
_MIGRATIONS: dict[int, tuple[str, ...]] = {
    2: (
        # Fixed-bucket latency histograms (per-bucket raw counts; the +Inf
        # bucket is the row whose le exceeds every finite bound).
        """CREATE TABLE IF NOT EXISTS hist_buckets (
               series TEXT NOT NULL,
               le     REAL NOT NULL,
               count  INTEGER NOT NULL DEFAULT 0,
               PRIMARY KEY (series, le)
           )""",
        """CREATE TABLE IF NOT EXISTS hist_sums (
               series  TEXT PRIMARY KEY,
               total   REAL NOT NULL DEFAULT 0.0,
               samples INTEGER NOT NULL DEFAULT 0
           )""",
        # Throughput ("finished in the last minute") was a full scan of the
        # done partition per /metrics call; this index makes it a range read.
        "CREATE INDEX IF NOT EXISTS idx_jobs_finished_at ON jobs(status, finished_at)",
    ),
}

#: Histogram series names (``stage:`` is prefixed with the stage name).
QUEUE_WAIT_SERIES = "queue_wait"
WALL_SERIES = "wall"
STAGE_SERIES_PREFIX = "stage:"

_COLUMNS = (
    "id, cache_key, spec, status, created_at, started_at, finished_at, "
    "attempts, worker, lease_expires_at, cancel_requested, result, "
    "stage_seconds, error"
)


class JobStore:
    """Durable queue + archive of mapping jobs over one SQLite file.

    Example::

        >>> import tempfile, os
        >>> from repro.runner import ExperimentSpec
        >>> store = JobStore(os.path.join(tempfile.mkdtemp(), "jobs.sqlite3"))
        >>> job, created = store.submit(ExperimentSpec("[[5,1,3]]"))
        >>> created, job.status
        (True, 'queued')
        >>> store.submit(ExperimentSpec("[[5,1,3]]"))[1]  # same spec: deduped
        False
    """

    def __init__(
        self,
        db_path: str | Path,
        *,
        cache: ResultCache | None = None,
        max_attempts: int = 3,
    ) -> None:
        self.db_path = Path(db_path)
        self.cache = cache
        self.max_attempts = max_attempts
        self.db_path.parent.mkdir(parents=True, exist_ok=True)
        with self._read() as conn:
            conn.executescript(_SCHEMA)
        self._migrate()

    # ------------------------------------------------------------------
    # Schema versioning.

    def _migrate(self) -> None:
        """Bring the store to :data:`SCHEMA_VERSION`, idempotently."""
        with self._transaction() as conn:
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            current = int(row["value"]) if row is not None else 1
            for version in range(current + 1, SCHEMA_VERSION + 1):
                for statement in _MIGRATIONS[version]:
                    conn.execute(statement)
            if current != SCHEMA_VERSION:
                conn.execute(
                    "INSERT OR REPLACE INTO meta (key, value) "
                    "VALUES ('schema_version', ?)",
                    (str(SCHEMA_VERSION),),
                )

    def schema_version(self) -> int:
        """The schema version recorded in the store (``GET /healthz``)."""
        with self._read() as conn:
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
        return int(row["value"]) if row is not None else 1

    # ------------------------------------------------------------------
    # Connections.

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.db_path, timeout=30.0, isolation_level=None)
        conn.row_factory = sqlite3.Row
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        return conn

    @contextmanager
    def _read(self) -> Iterator[sqlite3.Connection]:
        """A short-lived autocommit connection, closed on exit."""
        with SQLITE_LOCK:
            conn = self._connect()
            try:
                yield conn
            finally:
                conn.close()

    @contextmanager
    def _transaction(self) -> Iterator[sqlite3.Connection]:
        """One ``BEGIN IMMEDIATE`` transaction (serialises writers)."""
        with SQLITE_LOCK:
            conn = self._connect()
            try:
                conn.execute("BEGIN IMMEDIATE")
                yield conn
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            finally:
                conn.close()

    # ------------------------------------------------------------------
    # Submission and dedup.

    def submit(self, spec: ExperimentSpec, *, now: float | None = None) -> tuple[Job, bool]:
        """Enqueue ``spec``; returns ``(job, created)``.

        Dedup happens in two layers before any worker is involved:

        1. A job with the same content key that is queued, running or done is
           returned as-is (``created=False``).
        2. A :class:`~repro.runner.cache.ResultCache` hit creates the job
           directly in the ``done`` state, carrying the cached result.
        """
        now = time.time() if now is None else now
        key = spec.cache_key()
        with self._transaction() as conn:
            row = conn.execute(
                f"SELECT {_COLUMNS} FROM jobs WHERE cache_key = ? AND status IN "
                f"({','.join('?' * len(ACTIVE_OR_DONE))}) ORDER BY created_at DESC LIMIT 1",
                (key, *ACTIVE_OR_DONE),
            ).fetchone()
            if row is not None:
                return _job_from_row(row), False

            job = Job(id=new_job_id(), spec=spec, cache_key=key, created_at=now)
            hit = self.cache.load(spec) if self.cache is not None else None
            if hit is not None:
                job.status = DONE
                job.finished_at = now
                job.result = hit.to_dict()
            conn.execute(
                "INSERT INTO jobs (id, cache_key, spec, status, created_at, "
                "finished_at, result, stage_seconds) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    job.id,
                    key,
                    json.dumps(spec.to_dict(), sort_keys=True),
                    job.status,
                    now,
                    job.finished_at,
                    json.dumps(job.result) if job.result is not None else None,
                    json.dumps(job.stage_seconds),
                ),
            )
            return job, True

    # ------------------------------------------------------------------
    # Worker-side lifecycle.

    def claim(
        self, worker: str, *, lease_seconds: float = 300.0, now: float | None = None
    ) -> Job | None:
        """Atomically pop the oldest queued job, or ``None`` when idle."""
        now = time.time() if now is None else now
        with self._transaction() as conn:
            # A cancelled-while-running job that was orphan-requeued still
            # carries its cancel request: finalise it instead of re-running
            # the whole mapping just to record "cancelled" afterwards.
            conn.execute(
                "UPDATE jobs SET status = ?, finished_at = ? "
                "WHERE status = ? AND cancel_requested = 1",
                (CANCELLED, now, QUEUED),
            )
            row = conn.execute(
                f"SELECT {_COLUMNS} FROM jobs WHERE status = ? "
                "ORDER BY created_at, id LIMIT 1",
                (QUEUED,),
            ).fetchone()
            if row is None:
                return None
            conn.execute(
                "UPDATE jobs SET status = ?, worker = ?, started_at = ?, "
                "attempts = attempts + 1, lease_expires_at = ? WHERE id = ?",
                (RUNNING, worker, now, now + lease_seconds, row["id"]),
            )
            self._observe(conn, QUEUE_WAIT_SERIES, max(0.0, now - row["created_at"]))
        return self.get(row["id"])

    def complete(
        self,
        job_id: str,
        result: CellResult,
        *,
        stage_seconds: dict | None = None,
        worker: str | None = None,
        now: float | None = None,
    ) -> Job:
        """Record a successful execution (or honour a pending cancel).

        When ``worker`` is given the write is conditional on the job still
        being ``running`` under that worker: a stale worker whose job was
        orphan-requeued (and possibly re-claimed by someone else) must not
        overwrite the newer attempt's state.  Stale completions are dropped.
        """
        now = time.time() if now is None else now
        with self._transaction() as conn:
            row = self._require(conn, job_id)
            if not self._owns(row, worker):
                return _job_from_row(row)
            status = CANCELLED if row["cancel_requested"] else DONE
            conn.execute(
                "UPDATE jobs SET status = ?, finished_at = ?, result = ?, "
                "stage_seconds = ?, lease_expires_at = NULL WHERE id = ?",
                (
                    status,
                    now,
                    json.dumps(result.to_dict()),
                    json.dumps(stage_seconds or {}),
                    job_id,
                ),
            )
            if status == DONE:
                if row["started_at"] is not None:
                    self._observe(conn, WALL_SERIES, max(0.0, now - row["started_at"]))
                for stage, seconds in (stage_seconds or {}).items():
                    self._observe(conn, STAGE_SERIES_PREFIX + stage, float(seconds))
        return self.get(job_id)

    def fail(
        self,
        job_id: str,
        error: str,
        *,
        worker: str | None = None,
        now: float | None = None,
    ) -> Job:
        """Mark a job failed with ``error`` (same ownership rule as complete)."""
        now = time.time() if now is None else now
        with self._transaction() as conn:
            row = self._require(conn, job_id)
            if not self._owns(row, worker):
                return _job_from_row(row)
            conn.execute(
                "UPDATE jobs SET status = ?, finished_at = ?, error = ?, "
                "lease_expires_at = NULL WHERE id = ?",
                (FAILED, now, error, job_id),
            )
        return self.get(job_id)

    @staticmethod
    def _owns(row: sqlite3.Row, worker: str | None) -> bool:
        """Whether ``worker`` may still write this job's outcome."""
        if worker is None:  # trusted in-process caller (tests, admin tools)
            return True
        return row["status"] == RUNNING and row["worker"] == worker

    def release(self, job_id: str) -> Job:
        """Put a running job back in the queue (interrupted worker)."""
        with self._transaction() as conn:
            self._require(conn, job_id)
            conn.execute(
                "UPDATE jobs SET status = ?, worker = NULL, started_at = NULL, "
                "lease_expires_at = NULL WHERE id = ? AND status = ?",
                (QUEUED, job_id, RUNNING),
            )
        return self.get(job_id)

    def requeue_orphans(self, *, now: float | None = None) -> tuple[int, int]:
        """Recover jobs whose worker died mid-run.

        Every ``running`` job with an expired lease goes back to ``queued``
        — unless it already burned :attr:`max_attempts` claims, in which case
        it is marked ``failed``.  Returns ``(requeued, failed)``.
        """
        now = time.time() if now is None else now
        requeued = failed = 0
        with self._transaction() as conn:
            rows = conn.execute(
                f"SELECT {_COLUMNS} FROM jobs WHERE status = ? AND "
                "lease_expires_at IS NOT NULL AND lease_expires_at < ?",
                (RUNNING, now),
            ).fetchall()
            for row in rows:
                if row["attempts"] >= self.max_attempts:
                    conn.execute(
                        "UPDATE jobs SET status = ?, finished_at = ?, error = ?, "
                        "lease_expires_at = NULL WHERE id = ?",
                        (
                            FAILED,
                            now,
                            f"orphaned after {row['attempts']} attempts "
                            f"(worker {row['worker']} lost)",
                            row["id"],
                        ),
                    )
                    failed += 1
                else:
                    conn.execute(
                        "UPDATE jobs SET status = ?, worker = NULL, started_at = NULL, "
                        "lease_expires_at = NULL WHERE id = ?",
                        (QUEUED, row["id"]),
                    )
                    requeued += 1
        return requeued, failed

    # ------------------------------------------------------------------
    # Client-side operations.

    def cancel(self, job_id: str) -> Job:
        """Cancel a job.

        Queued jobs become ``cancelled`` immediately.  Running jobs get
        ``cancel_requested`` set; the worker's completion then records
        ``cancelled`` instead of ``done``.  Terminal jobs are unchanged.
        """
        with self._transaction() as conn:
            row = self._require(conn, job_id)
            if row["status"] == QUEUED:
                conn.execute(
                    "UPDATE jobs SET status = ?, finished_at = ? WHERE id = ?",
                    (CANCELLED, time.time(), job_id),
                )
            elif row["status"] == RUNNING:
                conn.execute(
                    "UPDATE jobs SET cancel_requested = 1 WHERE id = ?", (job_id,)
                )
        return self.get(job_id)

    def get(self, job_id: str) -> Job:
        """The job with ``job_id`` (raises :class:`MappingError` if absent)."""
        with self._read() as conn:
            row = conn.execute(
                f"SELECT {_COLUMNS} FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        if row is None:
            raise MappingError(f"unknown job: {job_id}")
        return _job_from_row(row)

    def list_jobs(self, *, status: str | None = None, limit: int = 200) -> list[Job]:
        """Jobs in submission order, optionally filtered by status.

        ``limit`` must be at least 1 (SQLite reads a negative ``LIMIT`` as
        no limit) and fit SQLite's 64-bit integers.
        """
        if status is not None and status not in STATUSES:
            raise MappingError(
                f"unknown status {status!r}; known: {', '.join(STATUSES)}"
            )
        if not 1 <= limit <= _SQLITE_MAX_INTEGER:
            raise MappingError(
                f"limit must be between 1 and {_SQLITE_MAX_INTEGER}, got {limit}"
            )
        query = f"SELECT {_COLUMNS} FROM jobs"
        params: tuple = ()
        if status is not None:
            query += " WHERE status = ?"
            params = (status,)
        query += " ORDER BY created_at, id LIMIT ?"
        with self._read() as conn:
            rows = conn.execute(query, (*params, limit)).fetchall()
        return [_job_from_row(row) for row in rows]

    # ------------------------------------------------------------------
    # Persisted latency histograms.

    @staticmethod
    def _observe(conn: sqlite3.Connection, series: str, value: float) -> None:
        """Record one observation into a persisted fixed-bucket histogram.

        Called inside an open claim/complete transaction, so histogram state
        always agrees with the job rows it was derived from.
        """
        from repro.ops.prom import DEFAULT_SECONDS_BUCKETS, bucket_index

        index = bucket_index(DEFAULT_SECONDS_BUCKETS, value)
        bound = (
            DEFAULT_SECONDS_BUCKETS[index]
            if index < len(DEFAULT_SECONDS_BUCKETS)
            else float("inf")
        )
        conn.execute(
            "INSERT INTO hist_buckets (series, le, count) VALUES (?, ?, 1) "
            "ON CONFLICT(series, le) DO UPDATE SET count = count + 1",
            (series, bound),
        )
        conn.execute(
            "INSERT INTO hist_sums (series, total, samples) VALUES (?, ?, 1) "
            "ON CONFLICT(series) DO UPDATE SET total = total + excluded.total, "
            "samples = samples + 1",
            (series, value),
        )

    def histograms(self) -> dict[str, dict]:
        """Every persisted histogram, in cumulative (exposition-ready) form.

        Returns ``{series: {"bounds": (...), "cumulative": [...], "sum": s,
        "count": n}}`` where ``cumulative`` has one entry per finite bound
        plus the trailing ``+Inf`` bucket.  Series names are
        :data:`QUEUE_WAIT_SERIES`, :data:`WALL_SERIES` and
        ``stage:<stage name>`` (dotted sub-stages such as
        ``stage:simulate.routing`` included).
        """
        from repro.ops.prom import DEFAULT_SECONDS_BUCKETS, bucket_index, cumulate

        bounds = DEFAULT_SECONDS_BUCKETS
        with self._read() as conn:
            bucket_rows = conn.execute(
                "SELECT series, le, count FROM hist_buckets ORDER BY series, le"
            ).fetchall()
            sum_rows = conn.execute(
                "SELECT series, total, samples FROM hist_sums"
            ).fetchall()
        sums = {row["series"]: (row["total"], row["samples"]) for row in sum_rows}
        out: dict[str, dict] = {}
        for row in bucket_rows:
            series = row["series"]
            if series not in out:
                total, samples = sums.get(series, (0.0, 0))
                out[series] = {
                    "bounds": bounds,
                    "raw": [0] * (len(bounds) + 1),
                    "sum": total,
                    "count": samples,
                }
            out[series]["raw"][bucket_index(bounds, row["le"])] += row["count"]
        for series_data in out.values():
            series_data["cumulative"] = cumulate(series_data.pop("raw"))
        return out

    # ------------------------------------------------------------------
    # Retention.

    def prune(
        self, *, retention_days: float, now: float | None = None
    ) -> int:
        """Delete terminal jobs older than ``retention_days`` and ``VACUUM``.

        Only terminal rows (done/failed/cancelled) are eligible; queued and
        running jobs are never touched.  Histograms are cumulative counters
        and deliberately survive pruning.  Returns the number of rows
        deleted.
        """
        if retention_days < 0:
            raise MappingError(
                f"retention must be non-negative, got {retention_days!r}"
            )
        now = time.time() if now is None else now
        cutoff = now - retention_days * 86400.0
        with self._transaction() as conn:
            cursor = conn.execute(
                f"DELETE FROM jobs WHERE status IN "
                f"({','.join('?' * len(TERMINAL))}) "
                "AND finished_at IS NOT NULL AND finished_at < ?",
                (*TERMINAL, cutoff),
            )
            deleted = cursor.rowcount
        if deleted:
            # VACUUM needs autocommit; reclaim the deleted pages.
            with self._read() as conn:
                conn.execute("VACUUM")
        return deleted

    def counts(self) -> dict[str, int]:
        """Job counts by status (every status present, zeros included)."""
        with self._read() as conn:
            rows = conn.execute(
                "SELECT status, COUNT(*) AS n FROM jobs GROUP BY status"
            ).fetchall()
        counts = {status: 0 for status in STATUSES}
        counts.update({row["status"]: row["n"] for row in rows})
        return counts

    def done_aggregates(self, *, now: float | None = None, window: float = 60.0) -> dict:
        """Aggregates over every done job, computed inside SQLite.

        One scan with JSON1 extraction instead of loading every job row into
        Python — ``GET /metrics`` stays cheap no matter how many jobs the
        store has archived.  Returns ``finished``, ``finished_recently``
        (within ``window`` seconds of ``now``), ``cache_served``,
        ``wall_total`` / ``wall_samples``, ``routing_total``,
        ``latency_total``, the route-cache counters ``route_cache_hits`` /
        ``route_cache_misses`` and the per-stage ``stage_totals`` mapping.
        """
        now = time.time() if now is None else now
        with self._read() as conn:
            # The throughput gauge is a range read over the (status,
            # finished_at) index instead of a scan of the whole done set.
            finished_recently = conn.execute(
                "SELECT COUNT(*) AS n FROM jobs "
                "WHERE status = ? AND finished_at >= ?",
                (DONE, now - window),
            ).fetchone()["n"]
            totals = conn.execute(
                """
                SELECT
                    COUNT(*) AS finished,
                    COALESCE(SUM(json_extract(result, '$.from_cache')), 0)
                        AS cache_served,
                    COALESCE(SUM(CASE WHEN started_at IS NOT NULL
                        THEN finished_at - started_at END), 0.0) AS wall_total,
                    COALESCE(SUM(started_at IS NOT NULL), 0) AS wall_samples,
                    COALESCE(SUM(json_extract(result, '$.routing_seconds')), 0.0)
                        AS routing_total,
                    COALESCE(SUM(json_extract(result, '$.latency')), 0.0)
                        AS latency_total,
                    COALESCE(SUM(json_extract(result, '$.route_cache_hits')), 0)
                        AS route_cache_hits,
                    COALESCE(SUM(json_extract(result, '$.route_cache_misses')), 0)
                        AS route_cache_misses
                FROM jobs WHERE status = ?
                """,
                (DONE,),
            ).fetchone()
            stage_rows = conn.execute(
                """
                SELECT stages.key AS stage, SUM(stages.value) AS seconds
                FROM jobs, json_each(jobs.stage_seconds) AS stages
                WHERE jobs.status = ? GROUP BY stages.key ORDER BY stages.key
                """,
                (DONE,),
            ).fetchall()
        return {
            **{key: totals[key] for key in totals.keys()},
            "finished_recently": finished_recently,
            "stage_totals": {row["stage"]: row["seconds"] for row in stage_rows},
        }

    # ------------------------------------------------------------------
    # Coordinated shutdown (workers poll this between jobs).

    def request_shutdown(self) -> None:
        """Ask every worker polling this store to exit after its current job."""
        with self._transaction() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES ('shutdown', '1')"
            )

    def clear_shutdown(self) -> None:
        """Reset the shutdown flag (called when a pool starts)."""
        with self._transaction() as conn:
            conn.execute("DELETE FROM meta WHERE key = 'shutdown'")

    def shutdown_requested(self) -> bool:
        """Whether :meth:`request_shutdown` was called."""
        with self._read() as conn:
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'shutdown'"
            ).fetchone()
        return row is not None

    # ------------------------------------------------------------------

    def _require(self, conn: sqlite3.Connection, job_id: str) -> sqlite3.Row:
        row = conn.execute(
            f"SELECT {_COLUMNS} FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        if row is None:
            raise MappingError(f"unknown job: {job_id}")
        return row


def _stored_spec(text: str) -> ExperimentSpec:
    """Rebuild a stored spec, without today's checks if they refuse it.

    An older build may have stored such a spec: it still lists, and the
    worker that claims it fails the job with the check's message.
    """
    record = json.loads(text)
    try:
        return ExperimentSpec.from_dict(record)
    except (ReproError, TypeError):
        spec, fabric = object.__new__(ExperimentSpec), object.__new__(FabricCell)
        fabric.__dict__.update(record.get("fabric", {}))
        spec.__dict__.update(record, fabric=fabric)
        return spec


def _job_from_row(row: sqlite3.Row) -> Job:
    return Job(
        id=row["id"],
        spec=_stored_spec(row["spec"]),
        cache_key=row["cache_key"],
        status=row["status"],
        created_at=row["created_at"],
        started_at=row["started_at"],
        finished_at=row["finished_at"],
        attempts=row["attempts"],
        worker=row["worker"],
        lease_expires_at=row["lease_expires_at"],
        cancel_requested=bool(row["cancel_requested"]),
        result=json.loads(row["result"]) if row["result"] else None,
        stage_seconds=json.loads(row["stage_seconds"]) if row["stage_seconds"] else {},
        error=row["error"],
    )
