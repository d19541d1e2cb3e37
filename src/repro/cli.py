"""Command-line interface: ``qspr-map``.

The subcommands cover the single-shot, batch, discovery and service
workflows:

* ``qspr-map run`` — map one QASM file (or registered benchmark circuit)
  onto an ion-trap fabric and print the latency report.  It builds one
  :class:`~repro.runner.spec.ExperimentSpec` and runs it through
  :func:`~repro.runner.executor.map_spec`, like ``repro.map_circuit`` and
  ``POST /jobs``, so a job has the same defaults at every door.
* ``qspr-map sweep`` — expand a mappers × placers × circuits × seeds grid,
  execute it (process-parallel with ``--jobs``, cached on disk) and write
  JSON + CSV results plus a latency comparison table.  Ctrl-C is graceful:
  partial results are still written.
* ``qspr-map report`` — re-render the tables from a previous sweep's
  ``results.json`` without re-running anything.
* ``qspr-map list`` — enumerate every plugin registered in the mapper,
  placer, fabric, circuit, scheduler and technology registries (built-ins
  and third-party).
* ``qspr-map serve`` — run the mapping service: a persistent SQLite job
  store, a worker pool and the HTTP JSON API (see ``docs/SERVICE.md``).
* ``qspr-map submit`` / ``status`` / ``jobs`` / ``cancel`` — the service
  client: submit specs or whole sweeps over HTTP (``submit --wait`` polls to
  completion), inspect and cancel jobs.  ``status`` without a job id prints
  the ``/healthz`` document; ``jobs prune --retention-days N`` ages out
  terminal jobs straight from the store file and VACUUMs it.
* ``qspr-map top`` — live ANSI dashboard over a job store: queue depth,
  throughput, latency percentiles from the persisted histograms, worker
  leases and the route-cache hit rate (``--once --json`` for scripts; see
  ``docs/OBSERVABILITY.md``).
* ``qspr-map cache`` — inspect (``info``) or age-out (``prune``) the on-disk
  result cache shared by sweeps and the service.

Every mapper, placer, fabric, circuit, scheduler and technology name on the
command line is resolved through the :mod:`repro.pipeline` registries, so
plugins imported before the CLI builds its parser are selectable like
built-ins.

Examples::

    qspr-map run --benchmark "[[5,1,3]]"
    qspr-map run circuit.qasm --mapper quale --fabric-rows 12 --fabric-cols 22
    qspr-map run --benchmark ghz --fabric small --placer center
    qspr-map run --benchmark ghz --technology fast-turn --scheduler quale-alap
    qspr-map sweep --benchmarks "[[5,1,3]],[[7,1,3]]" --mappers qspr,quale \\
        --placers mvfb,monte-carlo --out sweep-out --jobs 4
    qspr-map sweep --benchmarks "[[5,1,3]]" --placers center \\
        --technologies paper,cap-1 --schedulers qspr,qpos-dependents \\
        --turn-aware 1,0 --barriers 0,1
    qspr-map report sweep-out/results.json
    qspr-map list --registry placers
    qspr-map serve --port 8321 --workers 4 --out service-out
    qspr-map submit --benchmarks "[[5,1,3]]" --placers center --wait
    qspr-map status JOB_ID
    qspr-map jobs --status queued
    qspr-map cache info --cache-dir sweep-out/cache
    qspr-map cache prune --cache-dir sweep-out/cache --max-age-days 30
    qspr-map run --benchmark "random-layered:q=8:d=12:seed=3" --placer center
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import repro
from repro.analysis.metrics import latency_breakdown
from repro.errors import ReproError
from repro.mapper.options import MapperOptions
from repro.pipeline import MAPPERS, PLACERS, REGISTRIES, SCHEDULERS, TECHNOLOGIES, resolve_fabric
from repro.pipeline.circuits import is_regular_file
from repro.runner import (
    MEETING_POINTS,
    ExperimentSpec,
    FabricCell,
    ResultCache,
    Sweep,
    cell_table,
    latency_table,
    map_spec,
    read_json,
    run_sweep,
    write_csv,
    write_json,
)
from repro.viz.trace_render import render_gantt

#: Default URL of the service client subcommands.
_DEFAULT_URL = "http://127.0.0.1:8321"


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    """Single-value scenario flags of ``qspr-map run``."""
    parser.add_argument(
        "--technology",
        default="paper",
        help="registered technology (PMD) name, e.g. "
        f"{', '.join(TECHNOLOGIES.names())} (default: paper)",
    )
    parser.add_argument(
        "--scheduler",
        default="qspr",
        help="registered scheduling policy, e.g. "
        f"{', '.join(SCHEDULERS.names())} (default: qspr)",
    )
    parser.add_argument(
        "--no-turn-aware",
        action="store_true",
        help="ignore turn delays during path selection (prior-tool routing)",
    )
    parser.add_argument(
        "--meeting-point",
        choices=list(MEETING_POINTS),
        default="median",
        help="meeting-trap rule for two-qubit gates (default: median)",
    )
    parser.add_argument(
        "--channel-capacity",
        type=int,
        default=None,
        help="channel-capacity override, at most 64 (default: the technology's value)",
    )
    parser.add_argument(
        "--barriers",
        action="store_true",
        help="schedule level-by-level (ALAP) before mapping, as prior tools do",
    )


def _add_fabric_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fabric-rows", type=int, default=12, help="junction rows of the fabric (default: 12)"
    )
    parser.add_argument(
        "--fabric-cols", type=int, default=22, help="junction columns of the fabric (default: 22)"
    )
    parser.add_argument(
        "--channel-length", type=int, default=3, help="channel length in cells (default: 3)"
    )


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("qasm", nargs="?", help="path to a QASM file")
    source.add_argument(
        "--benchmark",
        help="a registered benchmark circuit (see `qspr-map list`), "
        'optionally parameterised like "random-layered:q=8:d=12:seed=3"',
    )
    parser.add_argument(
        "--mapper",
        choices=list(MAPPERS.names()),
        default="qspr",
        help="which registered mapper to run (default: qspr)",
    )
    parser.add_argument(
        "--placer",
        choices=list(PLACERS.names()),
        default="mvfb",
        help="registered placement algorithm for the QSPR mapper (default: mvfb)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=MapperOptions.num_seeds,
        help=f"MVFB random seeds m (default: {MapperOptions.num_seeds})",
    )
    parser.add_argument(
        "--placements",
        type=int,
        default=None,
        help="Monte-Carlo placement runs m' (default: m)",
    )
    parser.add_argument("--seed", type=int, default=0, help="placement random seed (default: 0)")
    parser.add_argument(
        "--fabric",
        default=None,
        help="registered fabric name (e.g. quale, small, linear) or a "
        "geometry label like 4x4c3; overrides the --fabric-* flags",
    )
    _add_scenario_arguments(parser)
    _add_fabric_arguments(parser)
    parser.add_argument("--show-trace", action="store_true", help="print a per-qubit Gantt chart")


def _add_sweep_axis_arguments(
    parser: argparse.ArgumentParser,
    *,
    benchmarks: str = '[[5,1,3]]',
    mappers: str = "qspr",
    placers: str = "mvfb",
    seeds: str = str(MapperOptions.num_seeds),
) -> None:
    """The grid-axis flags shared by ``sweep`` and ``submit``."""
    parser.add_argument(
        "--benchmarks",
        default=benchmarks,
        help="comma-separated circuit names, registered or parameterised "
        'like "random-layered:q=8:d=12", or QASM paths '
        f'(default: "{benchmarks}")',
    )
    parser.add_argument(
        "--mappers",
        default=mappers,
        help=f"comma-separated registered mappers from {MAPPERS.names()} "
        f"(default: {mappers})",
    )
    parser.add_argument(
        "--placers",
        default=placers,
        help=f"comma-separated registered QSPR placers (default: {placers})",
    )
    parser.add_argument(
        "--seeds",
        default=seeds,
        help="comma-separated MVFB seed counts m; Monte-Carlo uses the same "
        f"value as its run budget m' (default: {seeds})",
    )
    parser.add_argument(
        "--random-seeds", default="0", help="comma-separated random seeds (default: 0)"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="single deterministic seed for the whole grid (shorthand that "
        "overrides --random-seeds)",
    )
    parser.add_argument(
        "--technologies",
        default="paper",
        help="comma-separated registered technologies (PMDs), e.g. "
        f"{', '.join(TECHNOLOGIES.names())} (default: paper)",
    )
    parser.add_argument(
        "--schedulers",
        default="qspr",
        help="comma-separated registered scheduling policies, e.g. "
        f"{', '.join(SCHEDULERS.names())} (default: qspr)",
    )
    parser.add_argument(
        "--turn-aware",
        default="1",
        help='comma-separated booleans, e.g. "1,0" to ablate turn-aware '
        "routing (default: 1)",
    )
    parser.add_argument(
        "--meeting-points",
        default="median",
        help="comma-separated meeting-trap rules from "
        f"{', '.join(MEETING_POINTS)} (default: median)",
    )
    parser.add_argument(
        "--channel-capacities",
        default="default",
        help='comma-separated capacities; "default" uses the technology\'s '
        'value (default: "default")',
    )
    parser.add_argument(
        "--barriers",
        default="0",
        help='comma-separated booleans, e.g. "0,1" to ablate barrier '
        "(level-by-level) scheduling (default: 0)",
    )
    _add_fabric_arguments(parser)


def _sweep_from_args(args: argparse.Namespace) -> Sweep:
    """Build the declarative grid from parsed axis/fabric flags.

    Routed through :meth:`Sweep.from_dict`, so the CLI axes and the service
    payload axes share one parser (including the boolean and capacity
    spellings).
    """
    return Sweep.from_dict(
        {
            "circuits": args.benchmarks,
            "mappers": args.mappers,
            "placers": args.placers,
            "num_seeds": args.seeds,
            "random_seeds": args.random_seeds if args.seed is None else (args.seed,),
            "fabrics": (_fabric_cell(args),),
            "technologies": args.technologies,
            "schedulers": args.schedulers,
            "turn_aware": args.turn_aware,
            "meeting_points": args.meeting_points,
            "channel_capacities": args.channel_capacities,
            "barriers": args.barriers,
        }
    )


def _fabric_cell(args: argparse.Namespace) -> FabricCell:
    """The fabric of the ``--fabric-rows/--fabric-cols/--channel-length`` flags."""
    return FabricCell(
        junction_rows=args.fabric_rows,
        junction_cols=args.fabric_cols,
        channel_length=args.channel_length,
    )


def _add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    _add_sweep_axis_arguments(parser, benchmarks="[[5,1,3]],[[7,1,3]]", mappers="qspr,quale")
    parser.add_argument(
        "--out",
        default="sweep-out",
        help="output directory for results.json / results.csv (default: sweep-out)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache directory (default: <out>/cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="re-execute every cell, ignoring the cache"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (1 = sequential, 0 = one per CPU; default: 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the full subcommand parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="qspr-map",
        description="Map quantum circuits onto an ion-trap fabric and report latencies.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {repro.__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="map one circuit and print its latency report"
    )
    _add_run_arguments(run_parser)

    sweep_parser = subparsers.add_parser(
        "sweep", help="execute a mappers x placers x circuits grid with caching"
    )
    _add_sweep_arguments(sweep_parser)

    report_parser = subparsers.add_parser(
        "report", help="re-render tables from a sweep's results.json"
    )
    report_parser.add_argument("results", help="path to a results.json written by sweep")
    report_parser.add_argument(
        "--csv", default=None, help="also write the results as CSV to this path"
    )

    list_parser = subparsers.add_parser(
        "list", help="list every plugin registry and its registered names"
    )
    list_parser.add_argument(
        "--registry",
        choices=sorted(REGISTRIES),
        default=None,
        help="limit the listing to one registry (default: all)",
    )

    serve_parser = subparsers.add_parser(
        "serve", help="run the mapping service (job store + workers + HTTP API)"
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8321, help="bind port, 0 = ephemeral (default: 8321)"
    )
    serve_parser.add_argument(
        "--out",
        default="service-out",
        help="state directory holding jobs.sqlite3 and the result cache "
        "(default: service-out)",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (0 = one per CPU; default: 1)",
    )
    serve_parser.add_argument(
        "--threads",
        action="store_true",
        help="run workers as threads instead of processes",
    )
    serve_parser.add_argument(
        "--lease-seconds",
        type=float,
        default=300.0,
        help="seconds before a running job counts as orphaned (default: 300)",
    )
    serve_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the shared result cache (jobs still dedup against each other)",
    )
    serve_parser.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        help="admission watermark: POST /jobs answers 429 once this many "
        "jobs are queued (default: unbounded)",
    )
    serve_parser.add_argument(
        "--retry-after",
        type=float,
        default=2.0,
        help="Retry-After seconds served with admission 429s (default: 2)",
    )
    serve_parser.add_argument(
        "--log-file",
        default=None,
        help="structured JSONL log path (default: <out>/service.log.jsonl; "
        '"none" disables structured logging)',
    )

    submit_parser = subparsers.add_parser(
        "submit", help="submit a spec or sweep to a running mapping service"
    )
    submit_parser.add_argument(
        "--url", default=_DEFAULT_URL, help=f"service URL (default: {_DEFAULT_URL})"
    )
    _add_sweep_axis_arguments(submit_parser)
    submit_parser.add_argument(
        "--wait", action="store_true", help="poll the submitted jobs to completion"
    )
    submit_parser.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="deadline of --wait in seconds (default: 600)",
    )

    status_parser = subparsers.add_parser(
        "status", help="show service health, or one job's lifecycle record"
    )
    status_parser.add_argument(
        "job",
        nargs="?",
        default=None,
        help="job id returned by submit (omit to print the service's "
        "/healthz document: version, store schema, workers, queue)",
    )
    status_parser.add_argument(
        "--url", default=_DEFAULT_URL, help=f"service URL (default: {_DEFAULT_URL})"
    )

    jobs_parser = subparsers.add_parser(
        "jobs", help="list the service's jobs, or prune old terminal ones"
    )
    jobs_parser.add_argument(
        "action",
        nargs="?",
        choices=("list", "prune"),
        default="list",
        help="list jobs over HTTP (default), or prune terminal jobs older "
        "than --retention-days straight from the store file",
    )
    jobs_parser.add_argument(
        "--status",
        default=None,
        help="only jobs in this status (queued/running/done/failed/cancelled)",
    )
    jobs_parser.add_argument(
        "--limit",
        type=int,
        default=200,
        help="maximum number of jobs to list (default: 200)",
    )
    jobs_parser.add_argument(
        "--url", default=_DEFAULT_URL, help=f"service URL (default: {_DEFAULT_URL})"
    )
    jobs_parser.add_argument(
        "--retention-days",
        type=float,
        default=None,
        help="prune: delete terminal jobs finished more than this many days "
        "ago, then VACUUM the store (required with `jobs prune`)",
    )
    jobs_parser.add_argument(
        "--db",
        default="service-out/jobs.sqlite3",
        help="prune: the job-store SQLite file (default: service-out/jobs.sqlite3)",
    )

    top_parser = subparsers.add_parser(
        "top", help="live dashboard over a job store (queue, latencies, workers)"
    )
    top_parser.add_argument(
        "--db",
        default="service-out/jobs.sqlite3",
        help="job-store SQLite file to watch (default: service-out/jobs.sqlite3)",
    )
    top_parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between refreshes (default: 2)",
    )
    top_parser.add_argument(
        "--once",
        action="store_true",
        help="print a single frame (no screen clearing) and exit",
    )
    top_parser.add_argument(
        "--json",
        action="store_true",
        help="print the snapshot as one JSON document (implies --once)",
    )

    cancel_parser = subparsers.add_parser("cancel", help="cancel a service job")
    cancel_parser.add_argument("job", help="job id returned by submit")
    cancel_parser.add_argument(
        "--url", default=_DEFAULT_URL, help=f"service URL (default: {_DEFAULT_URL})"
    )

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or prune the on-disk result cache"
    )
    cache_parser.add_argument(
        "action", choices=("info", "prune"), help="what to do with the cache"
    )
    cache_parser.add_argument(
        "--cache-dir",
        default="sweep-out/cache",
        help="cache directory (default: sweep-out/cache)",
    )
    cache_parser.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        help="prune only records older than this many days (default: prune all)",
    )
    return parser


def _command_run(args: argparse.Namespace) -> int:
    circuit = fabric = None
    if args.qasm:
        # The positional argument names a file: parse it directly, so a file
        # that shares a registry name (e.g. "ghz") still wins.
        from repro.qasm.parser import parse_qasm_file

        path = Path(args.qasm)
        if not is_regular_file(args.qasm):
            raise ReproError(f"QASM file not found: {path}")
        circuit = parse_qasm_file(path)
    if args.fabric:
        fabric = resolve_fabric(args.fabric)
    spec = ExperimentSpec(
        circuit=args.qasm or args.benchmark,
        mapper=args.mapper,
        placer=args.placer,
        num_seeds=args.seeds,
        num_placements=args.placements,
        random_seed=args.seed,
        fabric=_fabric_cell(args),
        technology=args.technology,
        scheduler=args.scheduler,
        turn_aware=not args.no_turn_aware,
        meeting_point=args.meeting_point,
        channel_capacity=args.channel_capacity,
        barrier_scheduling=args.barriers,
    )
    result = map_spec(spec, circuit=circuit, fabric=fabric)

    print(result.summary())
    breakdown = latency_breakdown(result)
    print(
        f"  routing share     : {100 * breakdown.routing_share:.1f}% of summed instruction delay"
    )
    print(
        f"  congestion share  : {100 * breakdown.congestion_share:.1f}% of summed instruction delay"
    )
    if args.show_trace:
        print()
        print(render_gantt(result.trace))
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    sweep = _sweep_from_args(args)
    out = Path(args.out)
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir if args.cache_dir else out / "cache")

    run = run_sweep(sweep, cache=cache, workers=args.jobs)

    # Written even after Ctrl-C: an interrupted run still reports the cells
    # it completed instead of losing the sweep.
    json_path = write_json(run.results, out / "results.json")
    csv_path = write_csv(run.results, out / "results.csv")
    if run.results:
        print(latency_table(run.results))
        print(cell_table(run.results))
    print(run.summary())
    print(f"results: {json_path} and {csv_path}")
    return 130 if run.interrupted else 0


def _command_list(args: argparse.Namespace) -> int:
    """Print the contents of the plugin registries (``qspr-map list``)."""
    selected = [args.registry] if args.registry else list(REGISTRIES)
    width = max(len(title) for title in selected)
    for title in selected:
        registry = REGISTRIES[title]
        print(f"{title:<{width}} : {', '.join(registry.names())}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    """Run the mapping service in the foreground (``qspr-map serve``)."""
    from repro.service import MappingService, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        lease_seconds=args.lease_seconds,
        use_threads=args.threads,
        max_queue_depth=args.max_queue_depth,
        retry_after_seconds=args.retry_after,
    ).under(args.out)
    if args.no_cache:
        config = replace(config, cache_dir=None)
    if args.log_file is not None:
        config = replace(
            config, log_path=None if args.log_file == "none" else args.log_file
        )
    service = MappingService(config)
    service.start()
    workers = service.pool.alive_workers()
    print(f"mapping service listening on {service.url}", flush=True)
    print(f"job store: {config.db_path}", flush=True)
    print(f"workers  : {workers} ({service.pool.mode} mode)", flush=True)

    # SIGTERM (docker stop, CI teardown) gets the same graceful drain as
    # Ctrl-C.  Registration fails outside the main thread (tests) — fine.
    import signal

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _terminate)
    except ValueError:
        pass

    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down: draining workers, requeueing in-flight jobs ...")
        service.shutdown()
        counts = service.store.counts()
        service.store.close()
        print(
            f"stopped; {counts['done']} done, {counts['queued']} queued, "
            f"{counts['failed']} failed"
        )
    return 0


def _client(args: argparse.Namespace):
    from repro.service import ServiceClient

    return ServiceClient(args.url)


def _print_job_line(job: dict) -> None:
    from repro.runner import scenario_suffix

    spec = job["spec"]
    label = spec["mapper"] + (f"/{spec['placer']}" if spec["placer"] else "")
    scenario = ("technology", "scheduler", "turn_aware", "meeting_point",
                "channel_capacity", "barrier_scheduling")
    label += scenario_suffix(**{name: spec[name] for name in scenario})
    line = f"{job['id']}  {job['status']:<9}  {spec['circuit']:<12} {label}"
    if job.get("error"):
        line += f"  error: {job['error']}"
    print(line)


def _command_submit(args: argparse.Namespace) -> int:
    """Submit a spec/sweep to a running service (``qspr-map submit``)."""
    client = _client(args)
    submission = client.submit(_sweep_from_args(args))
    print(
        f"submitted {len(submission['jobs'])} jobs "
        f"({submission['created']} new, {submission['deduped']} deduplicated)"
    )
    for job in submission["jobs"]:
        _print_job_line(job)
    if not args.wait:
        return 0

    job_ids = [job["id"] for job in submission["jobs"]]
    finished = client.wait(job_ids, timeout=args.timeout)
    failures = 0
    print()
    for job in finished:
        _print_job_line(job)
        if job["status"] == "done":
            result = client.result(job["id"])["result"]
            print(
                f"    latency {result['latency']:.1f} us "
                f"(ideal {result['ideal_latency']:.1f} us"
                + (", from cache)" if result.get("from_cache") else ")")
            )
        else:
            failures += 1
    return 1 if failures else 0


def _command_status(args: argparse.Namespace) -> int:
    """Show service health, or one job's record (``qspr-map status``)."""
    if args.job is None:
        health = _client(args).health()
        for key in (
            "status", "version", "schema_version", "workers",
            "workers_expected", "worker_mode", "queue_depth", "running",
            "max_queue_depth", "uptime_seconds",
        ):
            print(f"{key:<16}: {health.get(key)}")
        return 0
    job = _client(args).job(args.job)
    for key in (
        "id", "status", "attempts", "worker", "created_at", "started_at",
        "finished_at", "cancel_requested", "error",
    ):
        print(f"{key:<16}: {job.get(key)}")
    print(f"{'spec':<16}: {job.get('spec')}")
    if job.get("result"):
        print(f"{'latency':<16}: {job['result']['latency']:.1f} us")
    return 0


def _command_jobs(args: argparse.Namespace) -> int:
    """List or prune the service's jobs (``qspr-map jobs [list|prune]``)."""
    if args.action == "prune":
        from repro.service import JobStore

        if args.retention_days is None:
            raise ReproError("`jobs prune` requires --retention-days")
        if not Path(args.db).exists():
            raise ReproError(f"job store not found: {args.db}")
        store = JobStore(args.db)
        try:
            removed = store.prune(retention_days=args.retention_days)
            counts = store.counts()
        finally:
            store.close()
        print(
            f"pruned {removed} terminal jobs older than "
            f"{args.retention_days:g} days (store vacuumed)"
        )
        print(f"remaining: {sum(counts.values())} jobs ({counts['queued']} queued)")
        return 0
    jobs = _client(args).jobs(status=args.status, limit=args.limit)
    for job in jobs:
        _print_job_line(job)
    suffix = " (truncated; raise --limit to see more)" if len(jobs) == args.limit else ""
    print(f"{len(jobs)} jobs{suffix}")
    return 0


def _command_top(args: argparse.Namespace) -> int:
    """Live dashboard over one job store (``qspr-map top``)."""
    from repro.ops.top import run_top

    if not Path(args.db).exists():
        raise ReproError(
            f"job store not found: {args.db} (is the service running with "
            "--out pointing elsewhere?)"
        )
    return run_top(
        args.db,
        interval=args.interval,
        once=args.once or args.json,
        as_json=args.json,
    )


def _command_cancel(args: argparse.Namespace) -> int:
    """Cancel a queued/running job (``qspr-map cancel``)."""
    job = _client(args).cancel(args.job)
    _print_job_line(job)
    return 0


def _command_cache(args: argparse.Namespace) -> int:
    """Inspect or prune the result cache (``qspr-map cache info|prune``)."""
    cache = ResultCache(args.cache_dir)
    if args.action == "info":
        print(cache.info().describe())
        return 0
    removed = cache.prune(max_age_days=args.max_age_days)
    scope = (
        f"older than {args.max_age_days:g} days" if args.max_age_days is not None else "all"
    )
    print(f"pruned {removed} cache records ({scope})")
    print(cache.info().describe())
    return 0


def _command_report(args: argparse.Namespace) -> int:
    path = Path(args.results)
    if not path.exists():
        raise ReproError(f"results file not found: {path}")
    results = read_json(path)
    if not results:
        raise ReproError(f"no results in {path}")
    print(latency_table(results))
    print(cell_table(results))
    if args.csv:
        print(f"csv: {write_csv(results, args.csv)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``qspr-map`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "run": _command_run,
        "sweep": _command_sweep,
        "report": _command_report,
        "list": _command_list,
        "serve": _command_serve,
        "submit": _command_submit,
        "status": _command_status,
        "jobs": _command_jobs,
        "cancel": _command_cancel,
        "cache": _command_cache,
        "top": _command_top,
    }[args.command]
    try:
        return handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())
