"""The HTTP face of the mapping service (stdlib ``http.server``, JSON only).

Endpoints:

========  ======================  =====================================
Method    Path                    Meaning
========  ======================  =====================================
POST      ``/jobs``               Submit a spec or a sweep (expanded
                                  into per-cell jobs server-side)
GET       ``/jobs``               List jobs (``?status=queued`` filters)
GET       ``/jobs/{id}``          One job's lifecycle record
GET       ``/jobs/{id}/result``   The flat mapping result of a done job
POST      ``/jobs/{id}/cancel``   Cancel a queued/running job
GET       ``/healthz``            Version, schema, worker liveness, queue
GET       ``/metrics``            Prometheus text exposition (JSON when
                                  the ``Accept`` header asks for it)
GET       ``/metrics.json``       The JSON metrics document, always
========  ======================  =====================================

``POST /jobs`` accepts either ``{"spec": {...ExperimentSpec fields...}}``,
the spec fields directly, or ``{"sweep": {...Sweep axes...}}``.  Specs are
validated against the :mod:`repro.pipeline` registries *at enqueue time* —
an unknown mapper, placer or circuit is a 400 with a did-you-mean message,
not a job that fails later.  When the queue sits at the configured
admission watermark (:attr:`~repro.service.config.ServiceConfig.max_queue_depth`),
submission is a ``429`` with a ``Retry-After`` header instead — load is
shed at the front door rather than by unbounded queue growth.

Every request gets a ``request_id`` (echoed in the ``X-Request-Id``
response header) and one structured access-log record; job submissions
additionally log one ``job.submitted`` record per job, carrying the
``job_id`` that correlates the worker-side lifecycle records (see
:mod:`repro.ops.logging` and ``docs/OBSERVABILITY.md``).

:class:`MappingService` ties the pieces together: one
:class:`~repro.service.store.JobStore`, one
:class:`~repro.service.worker.WorkerPool` and one threading HTTP server.
"""

from __future__ import annotations

import json
import math
import threading
import time
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import MappingError
from repro.ops.logging import StructuredLogger, new_request_id
from repro.runner.cache import ResultCache
from repro.service.config import ServiceConfig
from repro.service.jobs import (
    DONE,
    FAILED,
    QUEUED,
    AdmissionError,
    spec_from_payload,
    sweep_from_payload,
)
from repro.service.metrics import render_prometheus, service_metrics
from repro.service.store import JobStore
from repro.service.worker import WorkerPool

#: Maximum accepted request-body size (sweep payloads are small).
_MAX_BODY_BYTES = 1 << 20

#: Content type of the Prometheus text exposition.
_PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class MappingService:
    """A running mapping service: store + worker pool + HTTP API.

    Example::

        >>> import tempfile
        >>> config = ServiceConfig(port=0, use_threads=True).under(tempfile.mkdtemp())
        >>> service = MappingService(config)
        >>> service.start()
        >>> service.url.startswith("http://127.0.0.1:")
        True
        >>> service.shutdown()
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.cache = ResultCache(config.cache_dir) if config.cache_dir else None
        self.store = JobStore(
            config.db_path, cache=self.cache, max_attempts=config.max_attempts
        )
        self.pool = WorkerPool(config)
        self.logger = StructuredLogger(config.log_path, component="service")
        self.started_at: float | None = None
        self._httpd: ThreadingHTTPServer | None = None
        self._serve_thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Lifecycle.

    def start(self) -> None:
        """Bind the HTTP server, recover orphans and start the workers.

        The server thread is a daemon, so :meth:`start` returns immediately;
        use :meth:`serve_forever` for a foreground service (the CLI does).
        """
        self.started_at = time.time()
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), _Handler
        )
        self._httpd.service = self  # type: ignore[attr-defined]
        self.pool.start()
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        self._serve_thread.start()
        self.logger.log(
            "service.started",
            url=self.url,
            workers=self.config.workers,
            max_queue_depth=self.config.max_queue_depth,
        )

    def serve_forever(self) -> None:
        """Block until :meth:`shutdown` (or Ctrl-C in the CLI wrapper)."""
        if self._serve_thread is None:
            self.start()
        assert self._serve_thread is not None
        while self._serve_thread.is_alive():
            self._serve_thread.join(0.5)

    def shutdown(self) -> None:
        """Stop accepting requests, drain the pool, requeue stragglers."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        self.pool.stop()
        self.store.close()
        self.logger.log("service.stopped")
        self.logger.close()

    @property
    def url(self) -> str:
        """Base URL of the bound API (resolves ephemeral ``port=0``)."""
        if self._httpd is None:
            return f"http://{self.config.host}:{self.config.port}"
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    # ------------------------------------------------------------------
    # Request-level operations (used by the handler; callable in-process).

    def submit_payload(self, payload: dict, *, request_id: str | None = None) -> dict:
        """Handle a ``POST /jobs`` body; returns the response document.

        Raises:
            AdmissionError: When the queue is at the configured watermark.
            MappingError: On a malformed payload.
        """
        if not isinstance(payload, dict):
            raise MappingError("request body must be a JSON object")
        watermark = self.config.max_queue_depth
        if watermark is not None and self.store.counts()[QUEUED] >= watermark:
            self.logger.log(
                "admission.rejected",
                level="warning",
                request_id=request_id,
                queue_depth=self.store.counts()[QUEUED],
                watermark=watermark,
            )
            raise AdmissionError(
                f"queue is at its admission watermark ({watermark} queued jobs); "
                "retry later",
                retry_after=self.config.retry_after_seconds,
            )
        if "sweep" in payload:
            specs = sweep_from_payload(payload["sweep"])
        else:
            specs = (spec_from_payload(payload.get("spec", payload)),)
        jobs = []
        created = deduped = 0
        for spec in specs:
            job, was_created = self.store.submit(spec)
            jobs.append(job.to_dict())
            # Logged before the wake, so that no worker's record of the job
            # can come first.
            self.logger.log(
                "job.submitted",
                job_id=job.id,
                request_id=request_id,
                circuit=spec.circuit,
                mapper=spec.mapper,
                deduped=not was_created,
            )
            if was_created:
                created += 1
                self.pool.wake()  # the job is committed: an idle worker claims it now
            else:
                deduped += 1
        return {
            "jobs": jobs,
            "created": created,
            "deduped": deduped,
            "request_id": request_id,
        }

    def health(self) -> dict:
        """The ``GET /healthz`` document."""
        import repro

        counts = self.store.counts()
        return {
            "status": "ok",
            "version": repro.__version__,
            "schema_version": self.store.schema_version(),
            "workers": self.pool.alive_workers(),
            "workers_expected": self.pool.size,
            "worker_mode": self.pool.mode,
            "queue_depth": counts["queued"],
            "running": counts["running"],
            "max_queue_depth": self.config.max_queue_depth,
            "uptime_seconds": (
                time.time() - self.started_at if self.started_at is not None else 0.0
            ),
        }

    def prometheus(self) -> str:
        """The text exposition served by ``GET /metrics``."""
        return render_prometheus(
            self.store,
            workers_alive=self.pool.alive_workers(),
            uptime_seconds=(
                time.time() - self.started_at if self.started_at is not None else None
            ),
            max_queue_depth=self.config.max_queue_depth,
        )


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the owning :class:`MappingService`."""

    server_version = "qspr-map-service/1.0"

    @property
    def service(self) -> MappingService:
        return self.server.service  # type: ignore[attr-defined]

    # Silence per-request stderr logging; services log at a higher level.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        self.request_id = new_request_id()
        self.response_status: int | None = None
        started = time.monotonic()
        try:
            handled = self._route(method)
        except AdmissionError as exc:
            retry_after = max(1, math.ceil(exc.retry_after))
            self._send(
                429,
                {"error": str(exc), "retry_after": exc.retry_after},
                headers={"Retry-After": str(retry_after)},
            )
        except MappingError as exc:
            self._send(400, {"error": str(exc)})
        except (BrokenPipeError, ConnectionResetError):  # client went away
            return
        except Exception as exc:  # a fault must answer, not drop the connection
            self.service.logger.log(
                "http.error",
                level="error",
                request_id=self.request_id,
                error=f"{type(exc).__name__}: {exc}",
                traceback=traceback.format_exc(),
            )
            self._send(
                500,
                {
                    "error": f"internal error: {type(exc).__name__}: {exc}",
                    "request_id": self.request_id,
                },
            )
        else:
            if not handled:
                self._send(404, {"error": f"no route for {method} {self.path}"})
        self.service.logger.log(
            "http.request",
            request_id=self.request_id,
            method=method,
            path=self.path,
            status=self.response_status,
            duration_ms=round((time.monotonic() - started) * 1000.0, 3),
        )

    def _route(self, method: str) -> bool:
        path, _, query = self.path.partition("?")
        parts = [part for part in path.split("/") if part]

        if method == "GET" and parts == ["healthz"]:
            self._send(200, self.service.health())
        elif method == "GET" and parts == ["metrics"]:
            if "json" in (self.headers.get("Accept") or ""):
                self._send(200, service_metrics(self.service.store))
            else:
                self._send_text(200, self.service.prometheus())
        elif method == "GET" and parts == ["metrics.json"]:
            self._send(200, service_metrics(self.service.store))
        elif method == "POST" and parts == ["jobs"]:
            self._send(
                201,
                self.service.submit_payload(
                    self._read_json(), request_id=self.request_id
                ),
            )
        elif method == "GET" and parts == ["jobs"]:
            status = _query_param(query, "status")
            raw_limit = _query_param(query, "limit")
            try:
                limit = int(raw_limit) if raw_limit else 200
            except ValueError:
                raise MappingError(f"limit must be an integer, got {raw_limit!r}")
            jobs = self.service.store.list_jobs(status=status, limit=limit)
            self._send(200, {"jobs": [job.to_dict() for job in jobs]})
        elif method == "GET" and len(parts) == 2 and parts[0] == "jobs":
            job = self._get_job(parts[1])
            if job is not None:
                self._send(200, job.to_dict(include_result=True))
        elif method == "GET" and len(parts) == 3 and parts[:1] == ["jobs"] \
                and parts[2] == "result":
            self._send_result(parts[1])
        elif method == "POST" and len(parts) == 3 and parts[:1] == ["jobs"] \
                and parts[2] == "cancel":
            job = self._get_job(parts[1])
            if job is not None:
                self._send(200, self.service.store.cancel(job.id).to_dict())
        else:
            return False
        return True

    def _get_job(self, job_id: str):
        try:
            return self.service.store.get(job_id)
        except MappingError as exc:
            self._send(404, {"error": str(exc)})
            return None

    def _send_result(self, job_id: str) -> None:
        job = self._get_job(job_id)
        if job is None:
            return
        if job.status == DONE and job.result is not None:
            self._send(
                200,
                {"id": job.id, "result": job.result, "stage_seconds": job.stage_seconds},
            )
        elif job.status == FAILED:
            self._send(409, {"error": f"job {job.id} failed: {job.error}"})
        else:
            self._send(409, {"error": f"job {job.id} is {job.status}, not done"})

    def _read_json(self) -> dict:
        raw_length = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            raise MappingError(
                f"Content-Length must be an integer, got {raw_length!r}"
            ) from None
        if length <= 0:
            raise MappingError("request body required")
        if length > _MAX_BODY_BYTES:
            raise MappingError(f"request body too large ({length} bytes)")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise MappingError(f"request body is not valid JSON: {exc}") from exc

    def _send(
        self, code: int, document: dict, *, headers: dict[str, str] | None = None
    ) -> None:
        self._send_bytes(
            code, json.dumps(document).encode(), "application/json", headers
        )

    def _send_text(self, code: int, text: str) -> None:
        self._send_bytes(code, text.encode(), _PROMETHEUS_CONTENT_TYPE, None)

    def _send_bytes(
        self,
        code: int,
        body: bytes,
        content_type: str,
        headers: dict[str, str] | None,
    ) -> None:
        self.response_status = code
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Request-Id", getattr(self, "request_id", "-"))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)


def _query_param(query: str, name: str) -> str | None:
    from urllib.parse import parse_qs

    values = parse_qs(query).get(name)
    return values[0] if values else None
