"""Worker pool that drains the job store through the mapping pipeline.

Each worker is a loop around :meth:`~repro.service.store.JobStore.claim` →
:func:`~repro.runner.executor.map_spec` →
:meth:`~repro.service.store.JobStore.complete`.  The loop body is a plain
top-level function (:func:`worker_loop`), so the pool can run it either as
``multiprocessing`` processes (the default — mapping is CPU-bound pure
Python) or as threads (restricted sandboxes, tests); a platform that cannot
start processes falls back to threads automatically, mirroring
:func:`~repro.runner.executor.run_sweep`.

Workers share compiled-routing fabrics: every job targeting the same
:class:`~repro.runner.spec.FabricCell` reuses one built
:class:`~repro.fabric.fabric.Fabric` per worker, so the routing-graph
compilation cost (see :mod:`repro.routing.compiled`) is paid once per
geometry per worker, not once per job, and each job is served the route
plans earlier jobs left in the fabric's route table (see
:class:`~repro.routing.router.Router`).  Fabrics are immutable but their
compiled scratch arrays and route tables are not thread-safe, which is
exactly why the memo is *per worker* rather than global.

Dispatch is pushed, not polled.  The pool gives each worker a wake event,
and every commit that gives the workers something to claim sets them all: a
submit through the API (:meth:`WorkerPool.wake`), the supervisor's orphan
requeue, and :meth:`WorkerPool.stop` after it raises the shutdown flag.  An
idle worker clears its event, claims, and only when the claim finds nothing
waits on the event, so a job starts as soon as it is committed.  The store
stays the source of truth and the wait keeps ``poll_interval`` as its
timeout: a job nothing woke the pool for (one written to the database by
another process, say) waits at most one poll, and a job is never lost.
"""

from __future__ import annotations

import os
import threading
import time
import warnings

from repro.fabric.fabric import Fabric
from repro.ops.logging import LoggingObserver, StructuredLogger
from repro.runner.cache import ResultCache
from repro.runner.executor import map_spec
from repro.runner.results import CellResult
from repro.runner.spec import ExperimentSpec, FabricCell
from repro.service.config import ServiceConfig
from repro.service.jobs import CANCELLED, DONE, FAILED, Job
from repro.service.store import SQLITE_LOCK, JobStore


def execute_job(
    spec: ExperimentSpec,
    fabrics: dict[FabricCell, Fabric] | None = None,
    *,
    observer=None,
) -> tuple[CellResult, dict]:
    """Run one job's spec; returns the flat result plus stage timings.

    Args:
        spec: The experiment cell to map.
        fabrics: Per-worker fabric memo; jobs with the same
            :class:`~repro.runner.spec.FabricCell` share one built fabric
            (and therefore its compiled routing graph and route tables).
        observer: Optional :class:`~repro.pipeline.context.PipelineObserver`
            receiving stage callbacks (the worker passes a job-bound
            :class:`~repro.ops.logging.LoggingObserver`).

    Example::

        >>> from repro.runner import ExperimentSpec, FabricCell
        >>> spec = ExperimentSpec("[[5,1,3]]", placer="center",
        ...                       fabric=FabricCell(junction_rows=4, junction_cols=4))
        >>> cell, stages = execute_job(spec, {})
        >>> cell.latency > 0 and "simulate" in stages
        True
    """
    fabric = None
    if fabrics is not None:
        fabric = fabrics.get(spec.fabric)
        if fabric is None:
            fabric = fabrics[spec.fabric] = spec.build_fabric()
    result = map_spec(spec, fabric=fabric, observer=observer)
    return CellResult.from_mapping(spec, result), dict(result.stage_seconds)


class _SemaphoreEvent:
    """``threading.Event``'s ``set``/``clear``/``wait`` shared by processes.

    The event is set while one semaphore holds a token, and a woken waiter
    puts its token back, as :class:`multiprocessing.synchronize.Event` does.
    That class also guards its flag with a condition variable, so a worker
    SIGKILLed while waiting on it (by an operator or the OOM killer) leaves
    every later ``set()`` blocked for good, which would hang the next submit.
    A bare semaphore shares no lock: a dead waiter holds nothing.
    """

    def __init__(self, context) -> None:
        self._token = context.Semaphore(0)

    def set(self) -> None:
        self._token.acquire(False)
        self._token.release()

    def clear(self) -> None:
        while self._token.acquire(False):
            pass

    def wait(self, timeout: float | None = None) -> bool:
        if not self._token.acquire(True, timeout):
            return False
        self._token.release()
        return True


def worker_loop(
    db_path: str,
    cache_dir: str | None,
    worker_id: str,
    *,
    poll_interval: float = 0.2,
    lease_seconds: float = 300.0,
    max_attempts: int = 3,
    stop_event: threading.Event | None = None,
    wake_event: threading.Event | _SemaphoreEvent | None = None,
    max_jobs: int | None = None,
    log_path: str | None = None,
) -> int:
    """Claim-and-execute loop of one worker; returns jobs executed.

    Each pass clears ``wake_event``, claims, and, only when the claim finds
    nothing, waits on the event for at most ``poll_interval`` seconds.  The
    pool sets the event after every commit that queues work, so an idle
    worker claims a new job at once; without an event the loop makes its
    own, which nothing sets, and the wait is a plain poll.

    The loop exits when the store's shutdown flag is raised
    (:meth:`~repro.service.store.JobStore.request_shutdown`), when
    ``stop_event`` is set (thread mode), or after ``max_jobs`` jobs (tests).
    A :class:`KeyboardInterrupt` mid-job releases the claimed job back to the
    queue before re-raising, so Ctrl-C never strands work in ``running``.

    When ``log_path`` is set, every lifecycle event of a claimed job
    (``job.claimed``, per-stage ``pipeline.stage``, then ``job.done``,
    ``job.cancelled`` or ``job.failed``) is appended as one JSONL record
    carrying the job's id — ``grep job_id`` over the file reconstructs the
    job's history.  The outcome record follows what the store kept: when
    the store drops this worker's outcome, because the job was requeued,
    claimed again or ended meanwhile, the worker logs a ``job.stale``
    warning that names the status the store kept instead.
    """
    cache = ResultCache(cache_dir) if cache_dir else None
    store = JobStore(db_path, cache=cache, max_attempts=max_attempts)
    logger = StructuredLogger(log_path, component="worker", worker=worker_id)
    fabrics: dict[FabricCell, Fabric] = {}
    wake = wake_event if wake_event is not None else threading.Event()
    executed = 0
    try:
        while max_jobs is None or executed < max_jobs:
            # Clear before reading the store: whatever is committed after
            # this point either shows in the claim or leaves the event set.
            wake.clear()
            if stop_event is not None and stop_event.is_set():
                break
            if store.shutdown_requested():
                break
            job = store.claim(worker_id, lease_seconds=lease_seconds)
            if job is None:
                wake.wait(poll_interval)
                continue
            try:
                _run_claimed(store, cache, job, fabrics, worker_id, logger)
            except KeyboardInterrupt:
                store.release(job.id)
                raise
            executed += 1
    finally:
        store.close()
        logger.close()
    return executed


def _run_claimed(
    store: JobStore,
    cache: ResultCache | None,
    job: Job,
    fabrics: dict[FabricCell, Fabric],
    worker_id: str,
    logger: StructuredLogger,
) -> None:
    job_log = logger.child(job_id=job.id)
    job_log.log(
        "job.claimed",
        attempt=job.attempts,
        circuit=job.spec.circuit,
        mapper=job.spec.mapper,
    )
    started = time.monotonic()
    observer = LoggingObserver(job_log) if job_log.enabled else None
    # Pass the observer kwarg only when logging is on: tests (and any
    # pre-observability caller) may substitute execute_job with a
    # two-argument callable.
    kwargs = {"observer": observer} if observer is not None else {}
    try:
        # Rebuilt through today's checks: a spec an older build stored may
        # fail them, and then the job fails with the check's message.
        spec = ExperimentSpec.from_dict(job.spec.to_dict())
        cell, stage_seconds = execute_job(spec, fabrics, **kwargs)
    except KeyboardInterrupt:
        raise
    except Exception as exc:  # a bad job must not kill the worker
        message = f"{type(exc).__name__}: {exc}"
        kept = store.fail(job.id, message, worker=worker_id)
        if _recorded(kept, FAILED, worker_id):
            job_log.log(
                "job.failed",
                level="error",
                error=message,
                seconds=round(time.monotonic() - started, 6),
            )
        else:
            _log_stale(job_log, kept, started)
        return
    if cache is not None:
        cache.store(spec, cell)
    kept = store.complete(job.id, cell, stage_seconds=stage_seconds, worker=worker_id)
    seconds = round(time.monotonic() - started, 6)
    if _recorded(kept, DONE, worker_id):
        job_log.log("job.done", seconds=seconds, latency_us=cell.latency)
    elif _recorded(kept, CANCELLED, worker_id):
        job_log.log("job.cancelled", seconds=seconds)
    else:
        _log_stale(job_log, kept, started)


def _recorded(job: Job, status: str, worker_id: str) -> bool:
    """Whether the store kept ``status`` as this worker's outcome of ``job``."""
    return job.status == status and job.worker == worker_id


def _log_stale(job_log: StructuredLogger, kept: Job, started: float) -> None:
    """Log an outcome the store dropped: the job was requeued, claimed by
    another worker or ended while this worker mapped it."""
    job_log.log(
        "job.stale",
        level="warning",
        status=kept.status,
        holder=kept.worker,
        seconds=round(time.monotonic() - started, 6),
    )


class WorkerPool:
    """N workers draining one job store.

    Example::

        >>> import tempfile
        >>> from repro.service import ServiceConfig
        >>> config = ServiceConfig(use_threads=True).under(tempfile.mkdtemp())
        >>> pool = WorkerPool(config)
        >>> pool.start()
        >>> pool.alive_workers() >= 1
        True
        >>> pool.stop()
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.store = JobStore(
            config.db_path,
            cache=ResultCache(config.cache_dir) if config.cache_dir else None,
            max_attempts=config.max_attempts,
        )
        self._workers: list = []
        self._stop_event = threading.Event()
        self._wakes: list[threading.Event | _SemaphoreEvent] = []
        self._supervisor: threading.Thread | None = None
        self.mode: str | None = None

    @property
    def supervision_interval(self) -> float:
        """Seconds between supervisor passes (requeue orphans, respawn dead)."""
        return max(0.05, min(self.config.lease_seconds / 4.0, 30.0))

    @property
    def size(self) -> int:
        """Configured worker count (``0`` meaning one per CPU)."""
        return self.config.workers if self.config.workers > 0 else (os.cpu_count() or 1)

    def start(self) -> None:
        """Recover orphans, clear the shutdown flag and launch the workers.

        A supervisor thread then keeps the pool healthy for the life of the
        service: every :attr:`supervision_interval` it requeues jobs whose
        lease expired (their worker died mid-run) and respawns dead workers.

        The workers' wake events are made here for the mode they run in:
        one semaphore shared with each worker process, or one
        :class:`threading.Event` per thread worker.  Each worker clears only
        its own event, so it never swallows a wake meant for another.
        """
        self.store.clear_shutdown()
        self.store.requeue_orphans()
        self._stop_event.clear()
        self.mode, self._wakes = "thread", self._thread_wakes()
        if not self.config.use_threads:
            try:
                import multiprocessing

                # Making the shared semaphores doubles as the probe: a platform
                # without working process semaphores runs thread workers.
                context = multiprocessing.get_context()
                wakes = [_SemaphoreEvent(context) for _ in range(self.size)]
            except (ImportError, OSError) as exc:  # pragma: no cover - platform
                warnings.warn(
                    f"worker processes unavailable ({exc}); falling back to threads",
                    RuntimeWarning,
                    stacklevel=2,
                )
            else:
                self.mode, self._wakes = "process", wakes
        self._workers = []
        try:
            for index in range(self.size):
                self._workers.append(self._spawn(index))
        except (OSError, PermissionError) as exc:
            warnings.warn(
                f"worker processes unavailable ({exc}); falling back to threads",
                RuntimeWarning,
                stacklevel=2,
            )
            for worker in self._workers:  # reap the partial process fleet
                if hasattr(worker, "terminate"):
                    worker.terminate()
                    worker.join(1.0)
            self.mode, self._wakes = "thread", self._thread_wakes()
            self._workers = [self._spawn(index) for index in range(self.size)]
        self._supervisor = threading.Thread(target=self._supervise, daemon=True)
        self._supervisor.start()

    def _thread_wakes(self) -> list[threading.Event]:
        return [threading.Event() for _ in range(self.size)]

    def _loop_kwargs(self, index: int) -> dict:
        return {
            "poll_interval": self.config.poll_interval,
            "lease_seconds": self.config.lease_seconds,
            "max_attempts": self.config.max_attempts,
            "wake_event": self._wakes[index],
            "log_path": self.config.log_path,
        }

    def _spawn(self, index: int):
        """Start (or restart) worker ``index`` in the pool's mode."""
        if self.mode == "process":
            import multiprocessing

            process = multiprocessing.get_context().Process(
                target=worker_loop,
                args=(self.config.db_path, self.config.cache_dir, f"proc-{index}"),
                kwargs=self._loop_kwargs(index),
                daemon=True,
            )
            with SQLITE_LOCK:  # fork only while no thread is inside SQLite
                process.start()
            return process
        thread = threading.Thread(
            target=worker_loop,
            args=(self.config.db_path, self.config.cache_dir, f"thread-{index}"),
            kwargs={**self._loop_kwargs(index), "stop_event": self._stop_event},
            daemon=True,
        )
        thread.start()
        return thread

    def _supervise(self) -> None:
        """Requeue orphans and respawn dead workers until the pool stops."""
        while not self._stop_event.wait(self.supervision_interval):
            try:
                requeued, _ = self.store.requeue_orphans()
                if requeued:
                    self.wake()
                for index, worker in enumerate(self._workers):
                    if not worker.is_alive() and not self._stop_event.is_set():
                        self._workers[index] = self._spawn(index)
            except Exception:  # pragma: no cover - supervision must survive
                pass

    def alive_workers(self) -> int:
        """How many workers are currently alive."""
        return sum(1 for worker in self._workers if worker.is_alive())

    def wake(self) -> None:
        """Wake idle workers to claim now; call after a commit that queued work.

        A no-op before :meth:`start`: the workers' first claim sees the job.
        """
        for event in self._wakes:
            event.set()

    def stop(self, *, timeout: float = 10.0) -> None:
        """Graceful shutdown: finish in-flight jobs, then recover stragglers.

        Raises the store's shutdown flag (and the thread stop event), wakes
        the idle workers so they exit at once, joins every worker, and
        requeues any job a non-cooperating worker left in ``running`` so no
        work is stranded.
        """
        self.store.request_shutdown()
        self._stop_event.set()
        self.wake()
        if self._supervisor is not None:
            self._supervisor.join(timeout)
            self._supervisor = None
        deadline = time.monotonic() + timeout
        for worker in self._workers:
            worker.join(max(0.1, deadline - time.monotonic()))
        for worker in self._workers:
            if worker.is_alive() and hasattr(worker, "terminate"):
                worker.terminate()
                worker.join(1.0)
        self._workers = []
        # Anything still 'running' belonged to a worker we just reaped: jump
        # past every lease that could have been granted before this call.
        self.store.requeue_orphans(now=time.time() + self.config.lease_seconds + 1.0)
        self.store.close()
