#!/usr/bin/env python
"""Profile one mapping job the way the whole-job benchmark maps it.

Builds an :class:`~repro.runner.spec.ExperimentSpec` on the paper's QUALE
fabric with ``num_seeds=25`` (MVFB's ``m``) and runs it through
:func:`~repro.runner.executor.map_spec` under :mod:`cProfile` — a fresh
fabric, as ``perfbench/run.py`` maps library jobs — then prints the top
routing-frame costs, so core PRs can see where a job's time goes with one
command::

    PYTHONPATH=src python tools/profile_routing.py --top 25
    PYTHONPATH=src python tools/profile_routing.py [[23,1,7]] --sort tottime
    PYTHONPATH=src python tools/profile_routing.py \\
        random-layered:q=96:d=64:fill=1.0:locality=3:seed=3 \\
        --placer center --technology cap-1

The default, ``[[19,1,7]]`` with MVFB, is the largest job of the
paper-mvfb workload; the last command is the largest job of
cap1-single-pass.  The ``--filter`` substring (default ``routing``)
restricts the report to frames whose file path matches, which drops the
scheduler/placer noise; pass ``--filter ''`` for the unfiltered profile.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.runner import ExperimentSpec, FabricCell, map_spec  # noqa: E402

#: MVFB's seed count ``m`` in the paper's Tables 1 and 2.
NUM_SEEDS = 25


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "circuit",
        nargs="?",
        default="[[19,1,7]]",
        help="registered circuit name (default: %(default)s)",
    )
    parser.add_argument(
        "--placer", default="mvfb", help="placer registry name (default: %(default)s)"
    )
    parser.add_argument(
        "--technology",
        default="paper",
        help="technology registry name (default: %(default)s)",
    )
    parser.add_argument(
        "--top", type=int, default=20, help="rows to print (default: %(default)s)"
    )
    parser.add_argument(
        "--filter",
        default="routing",
        help="only print frames whose path contains this substring "
        "(default: %(default)s; pass '' for everything)",
    )
    parser.add_argument(
        "--sort",
        default="cumulative",
        choices=["cumulative", "tottime", "ncalls"],
        help="pstats sort key (default: %(default)s)",
    )
    return parser


def job_spec(args: argparse.Namespace) -> ExperimentSpec:
    """The job ``args`` name, on the QUALE fabric with MVFB's ``m`` seeds."""
    return ExperimentSpec(
        args.circuit,
        placer=args.placer,
        num_seeds=NUM_SEEDS,
        technology=args.technology,
        fabric=FabricCell.quale(),
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    spec = job_spec(args)

    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    result = map_spec(spec)
    profiler.disable()
    wall = time.perf_counter() - started

    stats = result.routing_stats
    print(
        f"{args.circuit} {spec.config_label()} on {spec.fabric.label}: "
        f"wall {wall:.4f}s, latency {result.latency}"
    )
    # The result's routing time and counters cover only the winning run.
    print(
        f"  winning run: routing {result.routing_seconds:.4f}s, "
        f"{stats.dijkstra_calls} searches ({stats.batched_searches} batched), "
        f"{stats.heap_pops} heap pops, {stats.cache_hits} cache hits / "
        f"{stats.cache_misses} misses"
    )
    print()
    report = pstats.Stats(profiler, stream=sys.stdout).sort_stats(args.sort)
    if args.filter:
        report.print_stats(args.filter, args.top)
    else:
        report.print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
