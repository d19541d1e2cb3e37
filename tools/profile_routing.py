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
    PYTHONPATH=src python tools/profile_routing.py [[19,1,7]] --mapper quale
    PYTHONPATH=src python tools/profile_routing.py --sample --filter ''

The default, ``[[19,1,7]]`` with MVFB, is the largest job of the
paper-mvfb workload; the third command is the largest job of
cap1-single-pass.  ``--mapper quale`` or ``--mapper qpos`` profiles a
baseline job as cap1-single-pass maps its twelve QUALE and QPOS jobs;
those presets fix their own placement, so they ignore ``--placer``.  The
``--filter`` substring (default ``routing``) restricts the report to
frames whose file path matches, which drops the scheduler/placer noise;
pass ``--filter ''`` for the unfiltered profile.

cProfile charges every Python call a fixed cost, which inflates the share
of code that makes many small calls.  ``--sample`` replaces it with a stack
sampler: every millisecond of process CPU time (``ITIMER_PROF``) it records
the running Python stack, then prints each frame's share of the samples as
self time (the frame was running) and inclusive time (the frame was on the
stack).  ``--sort cumulative`` orders that report by inclusive share, the
other keys by self share.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import signal
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.runner import ExperimentSpec, FabricCell, map_spec  # noqa: E402

#: MVFB's seed count ``m`` in the paper's Tables 1 and 2.
NUM_SEEDS = 25

#: Process CPU seconds between two ``--sample`` stack samples.
SAMPLE_INTERVAL_S = 0.001


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "circuit",
        nargs="?",
        default="[[19,1,7]]",
        help="registered circuit name (default: %(default)s)",
    )
    parser.add_argument(
        "--mapper", default="qspr", help="mapper registry name (default: %(default)s)"
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
        help="pstats sort key; --sample sorts by inclusive share for "
        "'cumulative', else by self share (default: %(default)s)",
    )
    parser.add_argument(
        "--sample",
        action="store_true",
        help="sample the stack on a CPU-time timer instead of running cProfile",
    )
    return parser


class StackSampler:
    """Counts the Python frames on the stack at every ``ITIMER_PROF`` tick.

    Use it as a context manager around the code to profile.  The timer
    counts the process's CPU time, and the signal runs on the main thread,
    so the samples cover the main thread's Python stack.  Frames are
    counted by their ``file:line(function)`` label, as pstats prints them.
    Generated code (file ``<string>``) shares one label per method across
    classes, so its function also names the class found in the frame's
    ``self`` or ``_cls`` local: a dataclass ``__init__`` counts as
    ``<string>:2(InstructionRecord.__init__)`` and a NamedTuple's
    constructor as ``<string>:1(RoutePlan.<lambda>)``, a row per record.
    """

    def __init__(self) -> None:
        self.samples = 0
        self.cpu_seconds = 0.0
        self.self_counts: Counter = Counter()
        self.inclusive_counts: Counter = Counter()

    def _sample(self, signum, frame) -> None:
        self.samples += 1
        if frame is None:
            return
        self.self_counts[_label(frame)] += 1
        on_stack = set()
        while frame is not None:
            on_stack.add(_label(frame))
            frame = frame.f_back
        self.inclusive_counts.update(on_stack)

    def __enter__(self) -> "StackSampler":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        self._started = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        self.cpu_seconds = time.process_time() - self._started
        signal.signal(signal.SIGPROF, self._previous)

    def print_report(self, restriction: str, top: int, *, inclusive: bool) -> None:
        """Print the ``top`` frames whose label contains ``restriction``."""
        # The kernel may deliver the timer at a coarser tick than asked.
        print(f"{self.samples} samples over {self.cpu_seconds:.3f} s of process CPU")
        print(f"{'self':>7} {'incl':>7}  frame")
        ranked = (self.inclusive_counts if inclusive else self.self_counts).most_common()
        labels = [label for label, _ in ranked if restriction in label]
        total = max(self.samples, 1)
        for label in labels[:top]:
            self_share = 100.0 * self.self_counts[label] / total
            inclusive_share = 100.0 * self.inclusive_counts[label] / total
            print(f"{self_share:6.1f}% {inclusive_share:6.1f}%  {label}")


def _label(frame) -> str:
    code = frame.f_code
    function = code.co_name
    if code.co_filename == "<string>":
        local = frame.f_locals
        owner = local.get("_cls")
        if owner is None and "self" in local:
            owner = type(local["self"])
        if owner is not None:
            function = f"{owner.__qualname__}.{function}"
    return f"{code.co_filename}:{code.co_firstlineno}({function})"


def job_spec(args: argparse.Namespace) -> ExperimentSpec:
    """The job ``args`` name, on the QUALE fabric with MVFB's ``m`` seeds."""
    return ExperimentSpec(
        args.circuit,
        mapper=args.mapper,
        placer=args.placer,
        num_seeds=NUM_SEEDS,
        technology=args.technology,
        fabric=FabricCell.quale(),
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    spec = job_spec(args)

    profiler = StackSampler() if args.sample else cProfile.Profile()
    started = time.perf_counter()
    with profiler:
        result = map_spec(spec)
    wall = time.perf_counter() - started

    stats = result.routing_stats
    print(
        f"{args.circuit} {spec.config_label()} on {spec.fabric.label}: "
        f"wall {wall:.4f}s, latency {result.latency}"
    )
    # The result's routing time and counters cover only the winning run.
    print(
        f"  winning run: routing {result.routing_seconds:.4f}s, "
        f"{stats.dijkstra_calls} searches, "
        f"{stats.heap_pops} heap pops, {stats.cache_hits} cache hits / "
        f"{stats.cache_misses} misses"
    )
    print()
    if args.sample:
        profiler.print_report(args.filter, args.top, inclusive=args.sort == "cumulative")
        return 0
    report = pstats.Stats(profiler, stream=sys.stdout).sort_stats(args.sort)
    if args.filter:
        report.print_stats(args.filter, args.top)
    else:
        report.print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
