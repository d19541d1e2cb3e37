"""Operational metrics of a running mapping service (``GET /metrics``).

Everything is computed from the job store, so metrics survive restarts with
the jobs themselves: queue depth and status counts come from one ``GROUP BY``,
throughput from the indexed ``finished_at`` column, and the per-stage time
breakdown is aggregated from every done job's persisted
:attr:`~repro.mapper.result.MappingResult.stage_seconds` — including the
dotted ``simulate.routing`` / ``place.routing`` sub-keys that attribute
pipeline time to the routing core.

Two exposition shapes share the same aggregates:

* :func:`service_metrics` — the JSON document (``GET /metrics.json``, and
  ``GET /metrics`` when the client asks for JSON).
* :func:`render_prometheus` — the Prometheus text format (``GET /metrics``),
  built on :mod:`repro.ops.prom`, including the fixed-bucket latency
  histograms the store persists at claim/complete time (queue wait, job wall
  time, per-stage seconds).  The full metric catalog lives in
  ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import time

from repro.ops.prom import Registry
from repro.service.jobs import DONE, FAILED, QUEUED, RUNNING, STATUSES
from repro.service.store import (
    QUEUE_WAIT_SERIES,
    STAGE_SERIES_PREFIX,
    WALL_SERIES,
    JobStore,
)

#: Window of the throughput gauge, in seconds.
THROUGHPUT_WINDOW = 60.0

#: ``metric name -> (series, help)`` of the unlabelled duration histograms.
_PLAIN_HISTOGRAMS = {
    "qspr_job_queue_wait_seconds": (
        QUEUE_WAIT_SERIES,
        "Time jobs spent queued before a worker claimed them.",
    ),
    "qspr_job_wall_seconds": (
        WALL_SERIES,
        "Execution wall-clock of done jobs (claim to completion).",
    ),
}


def service_metrics(store: JobStore, *, now: float | None = None) -> dict:
    """One JSON-ready snapshot of queue health and pipeline economics.

    Keys:
        ``jobs``: Job counts by status (plus ``total``).
        ``queue_depth``: Convenience alias of ``jobs.queued``.
        ``running``: Convenience alias of ``jobs.running``.
        ``throughput_per_minute``: Jobs finished in the last minute.
        ``executed_jobs`` / ``cache_served_jobs``: Done jobs that ran through
            a worker vs. jobs answered straight from the result cache.
        ``wall_seconds``: Summed and mean execution wall-clock of done jobs.
        ``stage_seconds``: Per-stage totals aggregated over every done job
            (``build-qidg``, ``place``, ``simulate``, ``simulate.routing``…).
        ``routing_seconds``: Total time spent planning routes (from the flat
            per-job results).
        ``route_cache``: Route-table hits, misses and hit rate summed over
            every done job — the gauge that shows the snapshot-validated
            route table working (each worker's memoised fabrics carry their
            tables from job to job).
        ``latency_us``: Summed mapped-circuit latency, for capacity math.
    """
    now = time.time() if now is None else now
    counts = store.counts()
    done = store.done_aggregates(now=now, window=THROUGHPUT_WINDOW)
    wall_samples = done["wall_samples"]
    route_lookups = done["route_cache_hits"] + done["route_cache_misses"]
    return {
        "jobs": {**counts, "total": sum(counts.values())},
        "queue_depth": counts[QUEUED],
        "running": counts[RUNNING],
        "done": counts[DONE],
        "failed": counts[FAILED],
        "throughput_per_minute": done["finished_recently"],
        "executed_jobs": done["finished"] - done["cache_served"],
        "cache_served_jobs": done["cache_served"],
        "wall_seconds": {
            "total": done["wall_total"],
            "mean": done["wall_total"] / wall_samples if wall_samples else 0.0,
        },
        "stage_seconds": done["stage_totals"],
        "routing_seconds": done["routing_total"],
        "route_cache": {
            "hits": done["route_cache_hits"],
            "misses": done["route_cache_misses"],
            "hit_rate": done["route_cache_hits"] / route_lookups if route_lookups else 0.0,
        },
        "latency_us": done["latency_total"],
    }


def render_prometheus(
    store: JobStore,
    *,
    now: float | None = None,
    workers_alive: int | None = None,
    uptime_seconds: float | None = None,
    max_queue_depth: int | None = None,
    version: str | None = None,
) -> str:
    """The Prometheus text-format exposition of one service scrape.

    Scalars are derived from the same :func:`service_metrics` aggregates the
    JSON shape serves; histograms come from the store's persisted
    fixed-bucket counters (:meth:`~repro.service.store.JobStore.histograms`),
    so percentiles are consistent across workers and service restarts.

    Args:
        store: The job store to scrape.
        now: Clock override (tests).
        workers_alive: Live worker count (omitted when no pool is attached).
        uptime_seconds: Service uptime (omitted for bare-store scrapes).
        max_queue_depth: Admission-control watermark (omitted when off).
        version: Package version stamped on ``qspr_build_info``.
    """
    snapshot = service_metrics(store, now=now)
    registry = Registry()

    if version is None:
        import repro

        version = repro.__version__
    registry.gauge(
        "qspr_build_info",
        "Constant 1; the package version rides on the label.",
        1,
        labels={"version": version},
    )
    registry.gauge(
        "qspr_store_schema_version",
        "Schema version of the SQLite job store.",
        store.schema_version(),
    )
    registry.gauge(
        "qspr_queue_depth", "Jobs waiting for a worker.", snapshot["queue_depth"]
    )
    registry.gauge(
        "qspr_jobs_running", "Jobs currently claimed by a worker.", snapshot["running"]
    )
    for status in STATUSES:
        registry.gauge(
            "qspr_jobs",
            "Jobs currently in each lifecycle status.",
            snapshot["jobs"][status],
            labels={"status": status},
        )
    registry.gauge(
        "qspr_throughput_jobs_per_minute",
        "Jobs finished within the last 60 seconds.",
        snapshot["throughput_per_minute"],
    )
    if workers_alive is not None:
        registry.gauge(
            "qspr_workers_alive", "Live workers in the pool.", workers_alive
        )
    if uptime_seconds is not None:
        registry.gauge(
            "qspr_uptime_seconds", "Seconds since the service started.", uptime_seconds
        )
    if max_queue_depth is not None:
        registry.gauge(
            "qspr_admission_queue_watermark",
            "Queue depth at which POST /jobs starts returning 429.",
            max_queue_depth,
        )

    registry.counter(
        "qspr_jobs_executed_total",
        "Done jobs that ran through a worker.",
        snapshot["executed_jobs"],
    )
    registry.counter(
        "qspr_jobs_cache_served_total",
        "Done jobs answered straight from the result cache.",
        snapshot["cache_served_jobs"],
    )
    for stage, seconds in snapshot["stage_seconds"].items():
        registry.counter(
            "qspr_stage_seconds_total",
            "Pipeline seconds summed over done jobs, per stage "
            "(dotted sub-keys attribute stage time to the routing core).",
            seconds,
            labels={"stage": stage},
        )
    registry.counter(
        "qspr_routing_seconds_total",
        "Seconds spent planning routes, summed over done jobs.",
        snapshot["routing_seconds"],
    )
    for result_label, value in (
        ("hit", snapshot["route_cache"]["hits"]),
        ("miss", snapshot["route_cache"]["misses"]),
    ):
        registry.counter(
            "qspr_route_cache_lookups_total",
            "Route-cache lookups of done jobs, by result.",
            value,
            labels={"result": result_label},
        )
    registry.counter(
        "qspr_mapped_latency_us_total",
        "Mapped-circuit latency (microseconds) summed over done jobs.",
        snapshot["latency_us"],
    )

    from repro.ops.prom import DEFAULT_SECONDS_BUCKETS

    empty = {
        "bounds": DEFAULT_SECONDS_BUCKETS,
        "cumulative": [0] * (len(DEFAULT_SECONDS_BUCKETS) + 1),
        "sum": 0.0,
    }
    histograms = store.histograms()
    for metric_name, (series, help_text) in _PLAIN_HISTOGRAMS.items():
        data = histograms.get(series, empty)
        registry.histogram(
            metric_name,
            help_text,
            bounds=data["bounds"],
            cumulative=data["cumulative"],
            sum_value=data["sum"],
        )
    stage_series = sorted(
        series for series in histograms if series.startswith(STAGE_SERIES_PREFIX)
    )
    if not stage_series:
        # Zero-filled canonical stages: scrapers see the family (and its
        # bucket layout) from the very first scrape of an idle service.
        from repro.pipeline.stages import STAGE_NAMES

        for stage in STAGE_NAMES:
            registry.histogram(
                "qspr_stage_duration_seconds",
                "Per-job pipeline stage duration, by stage.",
                bounds=empty["bounds"],
                cumulative=empty["cumulative"],
                sum_value=0.0,
                labels={"stage": stage},
            )
    for series in stage_series:
        data = histograms[series]
        registry.histogram(
            "qspr_stage_duration_seconds",
            "Per-job pipeline stage duration, by stage.",
            bounds=data["bounds"],
            cumulative=data["cumulative"],
            sum_value=data["sum"],
            labels={"stage": series[len(STAGE_SERIES_PREFIX):]},
        )
    return registry.render()
