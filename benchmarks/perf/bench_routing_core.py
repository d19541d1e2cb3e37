"""Microbenchmarks of the routing/simulation hot path.

Runs the same suite as ``qspr-map bench`` (see :mod:`repro.runner.bench`)
under the benchmark harness: it times full place-route-simulate pipeline
runs on the paper's circuits and records the report via ``report_util`` so
the session summary shows the timing tables.

Scale knobs (environment):

* ``REPRO_BENCH_PERF_FULL`` — set to ``1`` to time every bundled circuit
  (the ``qspr-map bench`` full mode); the default is the quick subset,
  which keeps the CI smoke job fast.
"""

from __future__ import annotations

import os

from report_util import emit as _emit
from repro.runner.bench import (
    LARGEST_CIRCUIT,
    BenchCase,
    format_perf_report,
    run_perf_suite,
    time_case,
    QUICK_CASES,
)

#: Whether to run the full bundled-circuit sweep (default: quick subset).
PERF_FULL = os.environ.get("REPRO_BENCH_PERF_FULL", "0") == "1"


def test_perf_suite_reports_trajectory():
    """The whole suite runs end to end and emits the timing tables."""
    report = run_perf_suite(quick=not PERF_FULL, repeats=3)
    _emit(format_perf_report(report))
    assert report["cases"], "the suite must time at least one case"
    for case in report["cases"]:
        assert case["wall_seconds"] > 0
        assert 0 <= case["routing_seconds"] <= case["wall_seconds"]


def test_largest_circuit_timing(benchmark):
    """Headline number: best-of-3 pipeline time on the largest bundled circuit."""
    record = benchmark.pedantic(
        time_case, args=(BenchCase(LARGEST_CIRCUIT),), kwargs={"repeats": 3},
        rounds=1, iterations=1,
    )
    benchmark.extra_info.update(
        wall_ms=round(record["wall_seconds"] * 1000, 1),
        routing_ms=round(record["routing_seconds"] * 1000, 1),
        route_cache_hit_rate=round(record["route_cache_hit_rate"], 3),
    )
    assert record["latency_us"] >= record["ideal_latency_us"] > 0


def test_single_case_timing(benchmark):
    """Per-case timing of the smallest paper circuit (quick feedback loop)."""
    record = benchmark.pedantic(
        time_case, args=(QUICK_CASES[0],), kwargs={"repeats": 1},
        rounds=3, iterations=1,
    )
    assert record["latency_us"] > 0
