"""Whole-job benchmark of the QSPR mapper.

Run every workload, each in its own fresh interpreter::

    python3 perfbench/run.py --workload all --seed 1

or one workload, untraced (end-to-end metrics) or traced (per-layer)::

    python3 perfbench/run.py --workload paper-mvfb --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every job's output passed its checks.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

WORKLOADS = ("paper-mvfb", "cap1-single-pass", "service-poisson")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    # Every run maps a fixed job list, so the run length does not change what
    # is measured; the option is accepted for a uniform command line.
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_workload(args) -> dict:
    sys.path.insert(0, SRC_DIR)
    sys.path.insert(0, BENCH_DIR)
    from qsprbench import library, workloads
    from qsprbench.service import run_service

    service = args.workload == "service-poisson"
    if args.trace:
        # The service's traced run maps its Poisson job list in this process
        # through the worker's own entry point; nothing inside the server is
        # wrapped.
        specs = workloads.traced_jobs(args.workload, args.seed)
        trace_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.spans.jsonl.gz")
        run = library.run_traced(specs, trace_path=trace_path, worker_path=service)
        if not service:
            _print_jobs(run.passes)
    elif service:
        run = run_service(args.seed, env=_program_env(), cwd=REPO_ROOT, state_root=OUT_DIR)
        for sub in run.submissions:
            if sub.problems:
                phase = "burst" if sub.burst else "poisson"
                print(
                    f"FAILED {phase} {sub.spec.circuit} seed={sub.spec.random_seed}: "
                    + "; ".join(sub.problems)
                )
    else:
        specs = workloads.LIBRARY_JOBS[args.workload](args.seed)
        run = library.run_untraced(specs, env=_program_env())
        _print_jobs(run.passes)
    metrics = run.metrics
    for note in run.notes:
        print(note)
    for problem in run.problems:
        print(f"PROBLEM {problem}")
    correct = not run.problems and run.failed == 0
    _print_metrics(args.workload, metrics, run.attempted, run.failed)
    return {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _print_jobs(passes) -> None:
    print(
        f"{'job':<58} {'config':<26} {'scaled_s':>9} {'cpu_s':>9} {'wall_s':>9} "
        f"{'latency_us':>11} {'runs':>5}"
    )
    for number, rows in enumerate(passes, start=1):
        for row in rows:
            latency = f"{row.latency:.1f}" if row.latency is not None else "-"
            print(
                f"{row.spec.circuit:<58} {row.spec.config_label():<26} {row.scaled_s:>9.3f} "
                f"{row.cpu_s:>9.3f} {row.wall_s:>9.3f} {latency:>11} {row.placement_runs:>5}"
                + (f"  {'traced' if number == 2 else 'untraced'}" if len(passes) > 1 else "")
            )
            for problem in row.problems:
                print(f"  FAILED: {problem}")


def _print_metrics(workload: str, metrics: dict, attempted: int, failed: int) -> None:
    print(f"== {workload}: {attempted} jobs attempted, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")


def _run_all(args) -> dict:
    """Each workload in its own interpreter, so no state or peak RSS leaks."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [
            sys.executable, os.path.abspath(__file__),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{workload}: no result (exit code {child.returncode})")
            summary["correct"] = False
            continue
        summary["correct"] = summary["correct"] and result["correct"] and child.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    return summary


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"error: the program's sources are missing ({SRC_DIR}/repro)", file=sys.stderr)
        return 2
    result = _run_all(args) if args.workload == "all" else _run_workload(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
