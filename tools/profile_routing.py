#!/usr/bin/env python
"""Profile the routing hot path of one bench case.

Runs a single deterministic mapping (the same configuration the golden
suite pins) under :mod:`cProfile` and prints the top routing-frame costs,
so kernel PRs can see where the wall time actually goes with one command::

    PYTHONPATH=src python tools/profile_routing.py [[19,1,7]] --top 25
    PYTHONPATH=src python tools/profile_routing.py [[23,1,7]] --sort tottime

The ``--filter`` substring (default ``routing``) restricts the report to
frames whose file path matches, which drops the scheduler/placer noise;
pass ``--filter ''`` for the unfiltered profile.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import MapperOptions, QsprMapper, small_fabric  # noqa: E402
from repro.circuits.qecc import qecc_encoder  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "circuit",
        nargs="?",
        default="[[19,1,7]]",
        help="QECC circuit label (default: %(default)s)",
    )
    parser.add_argument(
        "--placer", default="center", help="placer registry name (default: %(default)s)"
    )
    parser.add_argument(
        "--junctions",
        type=int,
        default=6,
        help="junction rows/cols of the square fabric (default: %(default)s)",
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
    args = parser.parse_args(argv)

    options = MapperOptions(placer=args.placer)
    fabric = small_fabric(junction_rows=args.junctions, junction_cols=args.junctions)
    circuit = qecc_encoder(args.circuit)
    mapper = QsprMapper(options)

    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    result = mapper.map(circuit, fabric)
    profiler.disable()
    wall = time.perf_counter() - started

    stats = result.routing_stats
    print(
        f"{args.circuit} on {args.junctions}x{args.junctions}: wall {wall:.4f}s, "
        f"routing {result.routing_seconds:.4f}s, latency {result.latency}"
    )
    print(
        f"  {stats.dijkstra_calls} searches ({stats.batched_searches} batched), "
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
