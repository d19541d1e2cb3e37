"""Every simulation run of a fixed job set, pinned by a digest, and each
job's work counters.

The summary goldens pin five winners; a change in a *losing* run of a
placement search moves none of them unless it changes the winner.  These
fingerprints cover every run: each job is mapped on a fresh fabric, every
:meth:`~repro.sim.engine.FabricSimulator.run` call is digested in run order,
and the list of run digests must equal the committed one.  A run's digest
covers its latency, schedule and final placement, and each instruction
record's issue, gate-start and finish times, trap, moves and turns; floats
enter through ``repr``, so the match is bit for bit.

Beside its digests each job pins its deterministic work counters summed
over every run (:func:`run_counters`): the event loop's, the busy queue's and
the routing core's.  They are compared exactly on fresh fabrics, so a
change that does more or less work at identical mappings fails here too.

The jobs: QSPR + MVFB at m=25 on ``[[5,1,3]]``, ``[[7,1,3]]`` and
``[[9,1,3]]`` on the paper's fabric with ``ExperimentSpec``'s default random
seed, the QUALE and QPOS presets on the six encoders, and one center-placed
run each of ``qecc-scaled`` at distances 9 and 13 on capacity-1 channels,
where many plans fail and instructions wait in the busy queue.  Then the
rest of the benchmark's seed-1 job lists (``perfbench/``), written out as
specs: the three small encoders at the MVFB random seeds the benchmark
draws, the three large ones at the default seed, and the center-placed
48- and 96-qubit layered circuits on capacity-1 channels.  A warm-fabric
test maps every job again on one shared fabric, whose route table then
holds earlier jobs' plans, and requires the same digests; its counters
may differ.

Regenerate after an *intentional* change of what a run computes or of the
work it does with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/integration/test_run_fingerprints.py
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from pathlib import Path

from repro.circuits.qecc import BENCHMARK_NAMES
from repro.runner.executor import map_spec
from repro.runner.spec import ExperimentSpec
from repro.sim.engine import FabricSimulator

FINGERPRINTS = Path(__file__).parent / "golden" / "run_fingerprints.json"

JOBS: dict[str, ExperimentSpec] = {
    **{
        f"qspr-mvfb {name}": ExperimentSpec(name, placer="mvfb", num_seeds=25)
        for name in ("[[5,1,3]]", "[[7,1,3]]", "[[9,1,3]]")
    },
    **{
        f"{mapper} {name}": ExperimentSpec(name, mapper=mapper)
        for mapper in ("quale", "qpos")
        for name in BENCHMARK_NAMES
    },
    **{
        f"center cap-1 {name}": ExperimentSpec(name, placer="center", technology="cap-1")
        for name in ("qecc-scaled:dist=9", "qecc-scaled:dist=13")
    },
    # The rest of the benchmark's seed-1 job lists.
    **{
        f"qspr-mvfb {name} seed={seed}": ExperimentSpec(
            name, placer="mvfb", num_seeds=25, random_seed=seed
        )
        for name, seed in (
            ("[[5,1,3]]", 1414831024),
            ("[[7,1,3]]", 608699267),
            ("[[9,1,3]]", 405385321),
        )
    },
    **{
        f"qspr-mvfb {name}": ExperimentSpec(name, placer="mvfb", num_seeds=25)
        for name in ("[[14,8,3]]", "[[19,1,7]]", "[[23,1,7]]")
    },
    **{
        f"center cap-1 {name}": ExperimentSpec(name, placer="center", technology="cap-1")
        for name in (
            "random-layered:q=48:d=16:fill=1.0:locality=3:seed=781082",
            "random-layered:q=96:d=64:fill=1.0:locality=3:seed=3",
        )
    },
}


def run_digest(outcome) -> str:
    """A short hex digest of one simulation run's outcome."""
    parts = [
        repr(outcome.latency),
        repr(outcome.schedule),
        repr(sorted(outcome.final_placement.as_dict().items())),
    ]
    for index in sorted(outcome.records):
        record = outcome.records[index]
        parts.append(repr((
            index,
            record.issue_time,
            record.gate_start,
            record.finish_time,
            record.target_trap,
            record.moves,
            record.turns,
        )))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def run_counters(outcome) -> dict[str, int]:
    """One run's deterministic work counters; ``runs`` counts the run."""
    events, routing = outcome.event_stats, outcome.routing_stats
    return {
        "runs": 1,
        "events_processed": events.events_processed,
        "issue_polls": events.issue_polls,
        "skipped_polls": events.skipped_polls,
        "wake_hits": events.wake_hits,
        "busy_queue_entries": outcome.busy_queue_entries,
        "dijkstra_calls": routing.dijkstra_calls,
        "heap_pops": routing.heap_pops,
        "edge_relaxations": routing.edge_relaxations,
        "cache_hits": routing.cache_hits,
        "cache_misses": routing.cache_misses,
        "batched_searches": routing.batched_searches,
    }


def job_fingerprint(
    spec: ExperimentSpec, monkeypatch, fabric=None
) -> tuple[list[str], dict[str, int]]:
    """The digests of every simulation run of ``spec``, in run order, and
    the job's counters summed over those runs.

    ``fabric`` maps onto a pre-built fabric instead of a fresh one.
    """
    digests: list[str] = []
    counters: dict[str, int] = {}
    original_run = FabricSimulator.run

    def digesting_run(sim, initial_placement):
        outcome = original_run(sim, initial_placement)
        digests.append(run_digest(outcome))
        for name, value in run_counters(outcome).items():
            counters[name] = counters.get(name, 0) + value
        return outcome

    with monkeypatch.context() as patch:
        patch.setattr(FabricSimulator, "run", digesting_run)
        map_spec(spec, fabric=fabric)
    return digests, counters


def test_every_run_matches_its_fingerprint(monkeypatch):
    fresh = {}
    for job, spec in JOBS.items():
        digests, counters = job_fingerprint(spec, monkeypatch)
        fresh[job] = {"digests": digests, "counters": counters}
    if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
        FINGERPRINTS.write_text(json.dumps(fresh, indent=1) + "\n")
    assert FINGERPRINTS.exists(), (
        f"missing {FINGERPRINTS}; generate it with REPRO_UPDATE_GOLDEN=1"
    )
    committed = json.loads(FINGERPRINTS.read_text())
    assert set(committed) == set(JOBS)
    for job, got in fresh.items():
        runs, expected = got["digests"], committed[job]["digests"]
        first_difference = next(
            (i for i, (a, b) in enumerate(zip(runs, expected)) if a != b),
            min(len(runs), len(expected)),
        )
        assert runs == expected, (
            f"{job}: {len(runs)} runs against {len(expected)} pinned; "
            f"first difference at run {first_difference}"
        )
    for job, got in fresh.items():
        assert got["counters"] == committed[job]["counters"], job


def test_a_warm_fabric_maps_every_run_alike(monkeypatch):
    # One fabric's route table serves every job on it, as in a service
    # worker.  A hit must give the plan a fresh search would, so every run
    # matches its fresh-fabric digest; only the work counters may differ.
    [cell] = {spec.fabric for spec in JOBS.values()}
    fabric = cell.build()
    committed = json.loads(FINGERPRINTS.read_text())
    order = sorted(JOBS)
    random.Random(2012).shuffle(order)
    for job in order:
        digests, _ = job_fingerprint(JOBS[job], monkeypatch, fabric)
        assert digests == committed[job]["digests"], job


def test_a_changed_record_changes_the_digest(monkeypatch):
    # The digest must see each record's fields, not only the run's latency.
    spec = JOBS["quale [[5,1,3]]"]
    [digest], _ = job_fingerprint(spec, monkeypatch)
    original_run = FabricSimulator.run

    def shifted_run(sim, initial_placement):
        outcome = original_run(sim, initial_placement)
        outcome.records[max(outcome.records)].turns += 1
        return outcome

    monkeypatch.setattr(FabricSimulator, "run", shifted_run)
    assert job_fingerprint(spec, monkeypatch)[0] != [digest]
