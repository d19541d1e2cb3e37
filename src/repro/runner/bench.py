"""Performance microbenchmarks of the mapping hot path (``qspr-map bench``).

The suite times full place-route-simulate pipeline runs on the paper's QECC
benchmark circuits (best of a few repeats, with the routing-core counters
of the best run) and replays a small service loadgen trace in-process.

Results are written to ``BENCH_perf.json``; see ``docs/PERFORMANCE.md`` for
how to read the report.  The committed ``BENCH_perf.json`` also keeps the
speedup legs of earlier schemas as a frozen historical record; the
selectable cores they compared against no longer exist.  The schema is flat
JSON on purpose: external tooling (pandas, jq, CI artifact diffing) can
consume it without knowing this package.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.analysis.tables import format_comparison_table
from repro.circuits.qecc import BENCHMARK_NAMES
from repro.mapper.options import MapperOptions
from repro.mapper.result import MappingResult
from repro.pipeline.circuits import resolve_circuit
from repro.pipeline.fabrics import resolve_fabric
from repro.pipeline.stages import MappingPipeline
from repro.pipeline.technologies import resolve_technology

#: Identifier of the report layout, bumped on incompatible changes.
#: Schema 2: ``speedups`` entries carry a ``kind`` discriminator
#: (``compiled-core`` / ``event-core``); event-core entries add the
#: deterministic work-ratio fields next to the wall-clock legs.
#: Schema 3: adds ``kind: "routing-v2"`` entries — the snapshot-cached,
#: landmark-guided kernel against the v1 compiled core — carrying wall,
#: routing-seconds, route-cache hit-rate and deterministic heap-pop legs.
#: Schema 4: drops ``speedups``; their baseline cores were deleted.
BENCH_SCHEMA = "qspr-perf-bench/4"

#: The largest bundled circuit (most qubits); the headline timing case.
LARGEST_CIRCUIT = "[[23,1,7]]"


@dataclass(frozen=True)
class BenchCase:
    """One timed pipeline configuration.

    Attributes:
        circuit: Registered benchmark circuit name.
        fabric: Registered fabric name (the paper's 45x85 fabric by default).
        placer: Placer evaluated by the pipeline.  ``center`` keeps a single
            deterministic placement run, so the timing isolates the
            place-route-simulate hot path rather than a placement search.
        technology: Registered technology (PMD) name the case runs under.
        scheduler: Registered scheduling-policy name.
    """

    circuit: str
    fabric: str = "quale"
    placer: str = "center"
    technology: str = "paper"
    scheduler: str = "qspr"

    @property
    def label(self) -> str:
        """Scenario-qualified case label used in reports and CI assertions."""
        label = self.circuit
        if self.technology != "paper":
            label += f"@{self.technology}"
        if self.scheduler != "qspr":
            label += f"+{self.scheduler}"
        return label


#: Cases timed by ``qspr-map bench --quick`` (CI smoke; a few seconds).  The
#: non-paper case keeps the scenario machinery (technology/scheduler plugins
#: threaded through the pipeline) on the perf-tracked path.
QUICK_CASES: tuple[BenchCase, ...] = (
    BenchCase("[[5,1,3]]"),
    BenchCase("[[7,1,3]]"),
    BenchCase("[[9,1,3]]"),
    BenchCase("[[9,1,3]]", technology="cap-1", scheduler="qpos-dependents"),
)

#: Cases timed by the full suite: every bundled QECC benchmark, plus scenario
#: probes on the mid-size circuit (alternative PMD and scheduler).
FULL_CASES: tuple[BenchCase, ...] = tuple(
    BenchCase(name) for name in BENCHMARK_NAMES
) + (
    BenchCase("[[19,1,7]]", technology="cap-1", scheduler="qpos-dependents"),
    BenchCase("[[19,1,7]]", technology="fast-turn", scheduler="quale-alap"),
)


def time_case(case: BenchCase, repeats: int = 3) -> dict:
    """Best-of-``repeats`` timing of one case.

    The case owns a fresh fabric, reused across its repeats — that is how
    the mappers use fabrics (the per-fabric graph compile is a one-off), and
    best-of timing then reports the warm steady state.
    """
    circuit = resolve_circuit(case.circuit)
    fabric = resolve_fabric(case.fabric)
    options = MapperOptions(
        technology=resolve_technology(case.technology),
        scheduler=case.scheduler,
        placer=case.placer,
    )
    best_result: MappingResult | None = None
    best_seconds = float("inf")
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        result = MappingPipeline.standard().run(circuit, fabric, options=options)
        seconds = time.perf_counter() - started
        if seconds < best_seconds:
            best_result, best_seconds = result, seconds
    assert best_result is not None
    record = {
        "label": case.label,
        "circuit": case.circuit,
        "fabric": case.fabric,
        "placer": case.placer,
        "technology": case.technology,
        "scheduler": case.scheduler,
        "qubits": circuit.num_qubits,
        "instructions": circuit.num_instructions,
        "wall_seconds": best_seconds,
        "latency_us": best_result.latency,
        "ideal_latency_us": best_result.ideal_latency,
        "routing_seconds": best_result.routing_seconds,
    }
    record.update(best_result.routing_stats.as_dict())
    return record


#: Parameters of the tracked loadgen smoke case: a 20-job Poisson trace
#: replayed at high time compression against an in-process service, so the
#: measured numbers are service-path economics (queueing, worker dispatch,
#: store round-trips), not raw mapping speed.
LOADGEN_CASE = {
    "label": "loadgen-smoke",
    "arrival": "poisson",
    "rate": 5.0,
    "jobs": 20,
    "seed": 1,
    "time_scale": 50.0,
    "workers": 2,
    "circuits": ("random-layered:q=5:d=4",),
    "fabric": {"junction_rows": 4, "junction_cols": 4},
}


def measure_loadgen(case: dict = LOADGEN_CASE) -> dict:
    """Replay the tracked loadgen case in-process; returns its flat record.

    The record carries completed/failed counts, jobs/sec and the p50/p95/p99
    JCT tails — the service-level numbers BENCH_perf.json starts tracking
    alongside the routing-kernel timings.
    """
    # Imported lazily: the workloads package sits above the runner in the
    # layering, so a module-level import would be circular via repro.runner.
    from repro.workloads import run_load, synthesize_trace

    trace = synthesize_trace(
        arrival=case["arrival"],
        rate=case["rate"],
        jobs=case["jobs"],
        seed=case["seed"],
        circuits=case["circuits"],
        spec_defaults={"placer": "center", "fabric": dict(case["fabric"])},
    )
    report = run_load(
        trace,
        workers=case["workers"],
        time_scale=case["time_scale"],
        slo_seconds=None,
    )
    payload = report.to_dict()
    return {
        "label": case["label"],
        "arrival": case["arrival"],
        "rate": case["rate"],
        "jobs": payload["jobs"],
        "completed": payload["completed"],
        "failed": payload["failed"],
        "seed": case["seed"],
        "time_scale": case["time_scale"],
        "workers": case["workers"],
        "wall_seconds": payload["wall_seconds"],
        "jobs_per_second": payload["jobs_per_second"],
        "jct_p50_seconds": payload["latencies"]["jct_seconds"].get("p50"),
        "jct_p95_seconds": payload["latencies"]["jct_seconds"].get("p95"),
        "jct_p99_seconds": payload["latencies"]["jct_seconds"].get("p99"),
    }


def run_perf_suite(
    *,
    quick: bool = False,
    repeats: int = 3,
    out: str | Path | None = None,
) -> dict:
    """Run the perf suite and (optionally) persist the JSON report.

    Args:
        quick: Run the CI-smoke subset (small circuits) instead of the full
            bundled-circuit sweep.
        repeats: Repetitions per timing; the best (minimum) wall-clock wins.
        out: Path the JSON report is written to (``BENCH_perf.json`` by
            convention); ``None`` skips writing.

    Returns:
        The report dict (also what was serialised to ``out``).
    """
    cases = QUICK_CASES if quick else FULL_CASES
    report = {
        "schema": BENCH_SCHEMA,
        "mode": "quick" if quick else "full",
        "repeats": repeats,
        "python": platform.python_version(),
        "cases": [time_case(case, repeats) for case in cases],
        "loadgen": measure_loadgen(),
    }
    if out is not None:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def format_perf_report(report: dict) -> str:
    """Human-readable tables of a :func:`run_perf_suite` report."""
    case_rows = [
        (
            case.get("label", case["circuit"]),
            case["instructions"],
            round(case["wall_seconds"] * 1000, 1),
            round(case["routing_seconds"] * 1000, 1),
            round(100 * case["route_cache_hit_rate"], 1),
            case["heap_pops"],
            case["edge_relaxations"],
        )
        for case in report["cases"]
    ]
    tables = [
        format_comparison_table(
            f"Pipeline timings ({report['mode']} mode, best of {report['repeats']})",
            [
                "circuit",
                "instrs",
                "wall (ms)",
                "routing (ms)",
                "cache hit %",
                "heap pops",
                "relaxations",
            ],
            case_rows,
        )
    ]
    loadgen = report.get("loadgen")
    if loadgen:
        tables.append(
            format_comparison_table(
                "Service loadgen (in-process replay of the smoke trace)",
                ["case", "jobs", "done", "jobs/s", "p50 JCT (s)", "p99 JCT (s)"],
                [
                    (
                        loadgen["label"],
                        loadgen["jobs"],
                        loadgen["completed"],
                        round(loadgen["jobs_per_second"], 2),
                        round(loadgen["jct_p50_seconds"], 3),
                        round(loadgen["jct_p99_seconds"], 3),
                    )
                ],
            )
        )
    return "\n\n".join(tables)


def bundled_case_names(cases: Sequence[BenchCase] = FULL_CASES) -> list[str]:
    """Scenario-qualified labels of the given cases (helper for CLI help/tests)."""
    return [case.label for case in cases]
