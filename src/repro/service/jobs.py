"""The job model: one queued mapping run and its lifecycle.

A job is an :class:`~repro.runner.spec.ExperimentSpec` plus queue state.  The
lifecycle is::

    queued ──► running ──► done
      │           │  └───► failed      (execution error, or orphaned too often)
      │           └──────► cancelled   (cancel requested while running)
      └──────────────────► cancelled   (cancelled before a worker claimed it)

plus the crash-recovery edge ``running → queued`` when a worker dies and its
lease expires (:meth:`~repro.service.store.JobStore.requeue_orphans`).

Submission payloads are validated *at enqueue time*: the spec round-trips
through :meth:`ExperimentSpec.from_dict`, whose ``__post_init__`` checks
every field's type and range and resolves the mapper and placer through the
:mod:`repro.pipeline` registries, and the circuit must name a registered
circuit or a QASM file (a regular file: directories and devices are
refused).  A bad payload is a 400 at the API boundary, never a failed job
discovered minutes later.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field

from repro.errors import CircuitError, MappingError, ReproError
from repro.pipeline.circuits import is_regular_file
from repro.runner.spec import ExperimentSpec, Sweep

#: Legal ``Job.status`` values, in lifecycle order.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

STATUSES: tuple[str, ...] = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)

#: Statuses that make a later submission of the same spec a duplicate.
ACTIVE_OR_DONE: tuple[str, ...] = (QUEUED, RUNNING, DONE)

#: Statuses a job can no longer leave.
TERMINAL: tuple[str, ...] = (DONE, FAILED, CANCELLED)


def new_job_id() -> str:
    """A short collision-resistant job identifier."""
    return uuid.uuid4().hex[:12]


class AdmissionError(MappingError):
    """Submission refused because the queue is at its admission watermark.

    The HTTP layer turns this into ``429 Too Many Requests`` with a
    ``Retry-After`` header of :attr:`retry_after` seconds, which
    :class:`~repro.service.client.ServiceClient` honours with bounded
    backoff.
    """

    def __init__(self, message: str, *, retry_after: float = 2.0) -> None:
        self.retry_after = retry_after
        super().__init__(message)


def spec_from_payload(payload: dict) -> ExperimentSpec:
    """Build and validate an :class:`ExperimentSpec` from an API payload.

    Raises:
        MappingError: On unknown fields, mistyped or out-of-range values,
            unknown registry names (with did-you-mean suggestions) or a
            circuit that is neither a registered name nor an existing QASM
            file.
    """
    if not isinstance(payload, dict):
        raise MappingError(f"spec payload must be an object, got {type(payload).__name__}")
    try:
        spec = ExperimentSpec.from_dict(payload)
    except MappingError:
        raise
    except (ReproError, TypeError, ValueError) as exc:
        raise MappingError(f"invalid spec payload: {exc}") from exc
    _require_runnable_circuit(spec)
    return spec


def sweep_from_payload(payload: dict) -> tuple[ExperimentSpec, ...]:
    """Expand a sweep payload into validated per-cell specs.

    Raises:
        MappingError: On unknown axes/names or an unrunnable circuit in the
            expanded grid.
    """
    if not isinstance(payload, dict):
        raise MappingError(f"sweep payload must be an object, got {type(payload).__name__}")
    try:
        cells = Sweep.from_dict(payload).expand()
    except MappingError:
        raise
    except (ReproError, TypeError, ValueError) as exc:
        raise MappingError(f"invalid sweep payload: {exc}") from exc
    for spec in cells:
        _require_runnable_circuit(spec)
    return cells


def _require_runnable_circuit(spec: ExperimentSpec) -> None:
    try:
        registered = spec.is_registered_circuit
    except CircuitError as exc:  # a malformed parameterised name
        raise MappingError(str(exc)) from exc
    if not registered and not is_regular_file(spec.circuit):
        raise MappingError(
            f"unknown circuit {spec.circuit!r}: not a registered name and not a QASM file"
        )


@dataclass
class Job:
    """One persisted mapping job.

    Attributes:
        id: Short hex identifier (URL-safe, unique per store).
        spec: The experiment cell to execute.
        cache_key: ``spec.cache_key()`` — the dedup identity of the job.
        status: One of :data:`STATUSES`.
        created_at: Submission time (Unix seconds).
        started_at: When a worker claimed the job (``None`` while queued).
        finished_at: When the job reached a terminal status.
        attempts: How many times a worker claimed the job (requeued orphans
            are claimed again).
        worker: Identifier of the worker holding / last holding the job.
        lease_expires_at: Deadline after which a ``running`` job counts as
            orphaned.
        cancel_requested: Cancellation was requested while the job ran.
        result: Flat :class:`~repro.runner.results.CellResult` dict of a
            ``done`` job.
        stage_seconds: Per-stage wall-clock breakdown from
            :attr:`~repro.mapper.result.MappingResult.stage_seconds`
            (feeds ``GET /metrics``).
        error: Failure message of a ``failed`` job.
    """

    id: str
    spec: ExperimentSpec
    cache_key: str
    status: str = QUEUED
    created_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    attempts: int = 0
    worker: str | None = None
    lease_expires_at: float | None = None
    cancel_requested: bool = False
    result: dict | None = None
    stage_seconds: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def is_terminal(self) -> bool:
        """Whether the job can no longer change status."""
        return self.status in TERMINAL

    @property
    def wall_seconds(self) -> float | None:
        """Execution wall-clock of a finished job (``None`` before that)."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def to_dict(self, *, include_result: bool = False) -> dict:
        """Plain-JSON representation (what the API serves).

        Example::

            >>> from repro.runner import ExperimentSpec
            >>> job = Job(id="abc", spec=ExperimentSpec("[[5,1,3]]"), cache_key="k")
            >>> job.to_dict()["status"]
            'queued'
        """
        record = {
            "id": self.id,
            "spec": self.spec.to_dict(),
            "cache_key": self.cache_key,
            "status": self.status,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "worker": self.worker,
            "cancel_requested": self.cancel_requested,
            "error": self.error,
        }
        if include_result:
            record["result"] = self.result
            record["stage_seconds"] = self.stage_seconds
        return record
