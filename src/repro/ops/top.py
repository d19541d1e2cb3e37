"""``qspr-map top`` — a live text dashboard over one job store.

No curses, no dependencies: each refresh clears the screen with ANSI escape
codes and reprints the dashboard, so it works in any terminal (and in a
pipe, where the escape codes are simply dropped by ``--once``).  Everything
is read straight from the :class:`~repro.service.store.JobStore` — the
dashboard needs no running service, only the SQLite file — so it can watch
a live deployment or post-mortem a stopped one.

Panels:

* queue depth / running / terminal counts and throughput (jobs finished in
  the last minute),
* latency percentiles (p50/p95) from the store's persisted fixed-bucket
  histograms — queue wait, job wall time, and each pipeline stage,
* worker leases of currently running jobs,
* route-cache hit rate over every done job.

``snapshot`` (the JSON document behind ``--json``) and ``render`` (the
ANSI panel) are separate pure functions, so the scripting shape and the
human shape can never drift apart.
"""

from __future__ import annotations

import json
import sys
import time

from repro.ops.prom import quantile
from repro.service.jobs import RUNNING
from repro.service.store import (
    QUEUE_WAIT_SERIES,
    STAGE_SERIES_PREFIX,
    WALL_SERIES,
    JobStore,
)

#: ANSI: clear screen + home the cursor (one refresh frame).
_CLEAR = "\x1b[2J\x1b[H"
_BOLD = "\x1b[1m"
_DIM = "\x1b[2m"
_RESET = "\x1b[0m"

#: Display order and captions of the histogram panel.
_SERIES_CAPTIONS = (
    (QUEUE_WAIT_SERIES, "queue wait"),
    (WALL_SERIES, "job wall"),
)


def snapshot(store: JobStore, *, now: float | None = None) -> dict:
    """One JSON-ready dashboard frame (what ``top --once --json`` prints).

    Keys: ``jobs`` (counts by status + total), ``queue_depth``, ``running``,
    ``throughput_per_minute``, ``executed_jobs``, ``cache_served_jobs`` and
    ``route_cache`` (hits/misses/hit_rate), all as
    :func:`~repro.service.metrics.service_metrics` reports them, plus
    ``latencies`` (per series: count, p50/p95 seconds, mean), ``workers``
    (running jobs' leases) and ``schema_version``.
    """
    from repro.service.metrics import service_metrics

    now = time.time() if now is None else now
    metrics = service_metrics(store, now=now)

    latencies = {}
    for series, data in sorted(store.histograms().items()):
        bounds, cumulative = data["bounds"], data["cumulative"]
        count = cumulative[-1] if cumulative else 0
        latencies[series] = {
            "count": count,
            "p50_seconds": quantile(bounds, cumulative, 0.50),
            "p95_seconds": quantile(bounds, cumulative, 0.95),
            "mean_seconds": data["sum"] / count if count else 0.0,
        }

    workers = [
        {
            "worker": job.worker,
            "job_id": job.id,
            "running_seconds": (
                now - job.started_at if job.started_at is not None else 0.0
            ),
            "lease_seconds_left": (
                job.lease_expires_at - now
                if job.lease_expires_at is not None
                else None
            ),
        }
        for job in store.list_jobs(status=RUNNING, limit=50)
    ]

    return {
        "ts": now,
        "schema_version": store.schema_version(),
        "jobs": metrics["jobs"],
        "queue_depth": metrics["queue_depth"],
        "running": metrics["running"],
        "throughput_per_minute": metrics["throughput_per_minute"],
        "executed_jobs": metrics["executed_jobs"],
        "cache_served_jobs": metrics["cache_served_jobs"],
        "route_cache": metrics["route_cache"],
        "latencies": latencies,
        "workers": workers,
    }


def _fmt_seconds(value: float) -> str:
    if value >= 100.0:
        return f"{value:7.0f}s"
    if value >= 1.0:
        return f"{value:6.2f}s "
    return f"{value * 1000.0:5.1f}ms "


def _series_caption(series: str) -> str:
    for known, caption in _SERIES_CAPTIONS:
        if series == known:
            return caption
    if series.startswith(STAGE_SERIES_PREFIX):
        return f"stage {series[len(STAGE_SERIES_PREFIX):]}"
    return series


def render(frame: dict, *, color: bool = True) -> str:
    """Render one :func:`snapshot` frame as the text dashboard."""
    bold = _BOLD if color else ""
    dim = _DIM if color else ""
    reset = _RESET if color else ""
    jobs = frame["jobs"]
    lines = [
        f"{bold}qspr-map top{reset}  "
        f"{dim}{time.strftime('%H:%M:%S', time.localtime(frame['ts']))}"
        f"  store schema v{frame['schema_version']}{reset}",
        "",
        f"  queued {jobs['queued']:>5}   running {jobs['running']:>4}   "
        f"done {jobs['done']:>6}   failed {jobs['failed']:>4}   "
        f"cancelled {jobs['cancelled']:>4}",
        f"  throughput {frame['throughput_per_minute']:>4} jobs/min   "
        f"executed {frame['executed_jobs']:>6}   "
        f"cache-served {frame['cache_served_jobs']:>6}",
        "",
        f"{bold}  latency            count      p50       p95      mean{reset}",
    ]
    for series, stats in frame["latencies"].items():
        lines.append(
            f"  {_series_caption(series):<18}{stats['count']:>6}  "
            f"{_fmt_seconds(stats['p50_seconds'])} "
            f"{_fmt_seconds(stats['p95_seconds'])} "
            f"{_fmt_seconds(stats['mean_seconds'])}"
        )
    if not frame["latencies"]:
        lines.append(f"  {dim}(no completed jobs yet){reset}")
    cache = frame["route_cache"]
    lines += [
        "",
        f"  route cache: {cache['hits']} hits / {cache['misses']} misses "
        f"({cache['hit_rate']:.0%} hit rate)",
        "",
        f"{bold}  worker            job           running   lease left{reset}",
    ]
    for lease in frame["workers"]:
        left = lease["lease_seconds_left"]
        lines.append(
            f"  {str(lease['worker']):<16}  {lease['job_id']:<12}  "
            f"{lease['running_seconds']:7.1f}s  "
            f"{f'{left:7.1f}s' if left is not None else '      --'}"
        )
    if not frame["workers"]:
        lines.append(f"  {dim}(no jobs running){reset}")
    return "\n".join(lines) + "\n"


def run_top(
    db_path: str,
    *,
    interval: float = 2.0,
    once: bool = False,
    as_json: bool = False,
    iterations: int | None = None,
    out=None,
) -> int:
    """The ``qspr-map top`` loop; returns a process exit code.

    Args:
        db_path: The job-store SQLite file to watch.
        interval: Seconds between refreshes.
        once: Print a single frame (no ANSI clear) and exit.
        as_json: Print the :func:`snapshot` document instead of the panel
            (implies a single machine-readable frame per refresh).
        iterations: Stop after this many frames (tests); ``None`` = forever.
        out: Output stream (default ``sys.stdout``).
    """
    out = sys.stdout if out is None else out
    store = JobStore(db_path)
    frames = 0
    try:
        while True:
            frame = snapshot(store)
            if as_json:
                out.write(json.dumps(frame) + "\n")
            elif once:
                out.write(render(frame, color=False))
            else:
                out.write(_CLEAR + render(frame))
            out.flush()
            frames += 1
            if once or (iterations is not None and frames >= iterations):
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0


__all__ = ["render", "run_top", "snapshot"]
