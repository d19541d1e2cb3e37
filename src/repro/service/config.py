"""Service configuration: one dataclass shared by store, pool, server and CLI."""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of a mapping-service deployment.

    Attributes:
        host: Bind address of the HTTP API.
        port: Bind port; ``0`` asks the OS for an ephemeral port (the bound
            port is reported by :attr:`~repro.service.api.MappingService.url`).
        db_path: SQLite file of the :class:`~repro.service.store.JobStore`.
        cache_dir: Directory of the shared
            :class:`~repro.runner.cache.ResultCache`; ``None`` disables
            result-cache dedup (jobs still dedup against each other).
        workers: Worker count of the :class:`~repro.service.worker.WorkerPool`;
            ``0`` means one worker per CPU.
        poll_interval: Fallback timeout (seconds) of an idle worker's wait.
            A submit through the API, an orphan requeue and a shutdown wake
            idle workers at once; the timeout only bounds how late a worker
            sees a lost wake or a job written to the database directly.
        lease_seconds: How long a claimed job may run before it is considered
            orphaned and eligible for requeue.
        max_attempts: Claims a job may consume before a further orphan-requeue
            marks it failed instead.
        use_threads: Run workers as threads instead of processes (used by the
            test suite and by restricted sandboxes; process startup failures
            fall back to threads automatically either way).
        max_queue_depth: Admission-control watermark — when this many jobs
            are queued, ``POST /jobs`` answers ``429`` with a ``Retry-After``
            header instead of enqueueing more.  ``None`` disables admission
            control.
        retry_after_seconds: The ``Retry-After`` value (seconds) served with
            admission-control 429s; :class:`~repro.service.client.ServiceClient`
            honours it with bounded backoff.
        log_path: JSONL file of the structured service/worker log (see
            :mod:`repro.ops.logging`); ``None`` disables structured logging.

    Example::

        >>> ServiceConfig().port
        8321
    """

    host: str = "127.0.0.1"
    port: int = 8321
    db_path: str = "service-out/jobs.sqlite3"
    cache_dir: str | None = "service-out/cache"
    workers: int = 1
    poll_interval: float = 0.2
    lease_seconds: float = 300.0
    max_attempts: int = 3
    use_threads: bool = False
    max_queue_depth: int | None = None
    retry_after_seconds: float = 2.0
    log_path: str | None = "service-out/service.log.jsonl"

    def under(self, directory: str | Path) -> "ServiceConfig":
        """A copy with the store, cache and log relocated below ``directory``.

        Example::

            >>> ServiceConfig().under("/tmp/svc").db_path
            '/tmp/svc/jobs.sqlite3'
        """
        base = Path(directory)
        return replace(
            self,
            db_path=str(base / "jobs.sqlite3"),
            cache_dir=str(base / "cache") if self.cache_dir is not None else None,
            log_path=(
                str(base / "service.log.jsonl") if self.log_path is not None else None
            ),
        )
