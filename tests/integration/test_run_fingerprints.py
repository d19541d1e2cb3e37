"""Every simulation run of a fixed job set, pinned by a digest.

The summary goldens pin five winners; a change in a *losing* run of a
placement search moves none of them unless it changes the winner.  These
fingerprints cover every run: each job is mapped on a fresh fabric, every
:meth:`~repro.sim.engine.FabricSimulator.run` call is digested in run order,
and the list of run digests must equal the committed one.  A run's digest
covers its latency, schedule and final placement, and each instruction
record's issue, gate-start and finish times, trap, moves and turns; floats
enter through ``repr``, so the match is bit for bit.

The jobs: QSPR + MVFB at m=25 on ``[[5,1,3]]``, ``[[7,1,3]]`` and
``[[9,1,3]]`` on the paper's fabric with ``ExperimentSpec``'s default random
seed, and the QUALE and QPOS presets on the six encoders.

Regenerate after an *intentional* change of what a run computes with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/integration/test_run_fingerprints.py
"""

from __future__ import annotations

import hashlib
import json
import os
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


def job_fingerprint(spec: ExperimentSpec, monkeypatch) -> list[str]:
    """The digests of every simulation run of ``spec``, in run order."""
    digests: list[str] = []
    original_run = FabricSimulator.run

    def digesting_run(sim, initial_placement):
        outcome = original_run(sim, initial_placement)
        digests.append(run_digest(outcome))
        return outcome

    with monkeypatch.context() as patch:
        patch.setattr(FabricSimulator, "run", digesting_run)
        map_spec(spec)
    return digests


def test_every_run_matches_its_fingerprint(monkeypatch):
    fresh = {job: job_fingerprint(spec, monkeypatch) for job, spec in JOBS.items()}
    if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
        FINGERPRINTS.write_text(json.dumps(fresh, indent=1) + "\n")
    assert FINGERPRINTS.exists(), (
        f"missing {FINGERPRINTS}; generate it with REPRO_UPDATE_GOLDEN=1"
    )
    committed = json.loads(FINGERPRINTS.read_text())
    assert set(committed) == set(JOBS)
    for job, runs in fresh.items():
        expected = committed[job]
        first_difference = next(
            (i for i, (a, b) in enumerate(zip(runs, expected)) if a != b),
            min(len(runs), len(expected)),
        )
        assert runs == expected, (
            f"{job}: {len(runs)} runs against {len(expected)} pinned; "
            f"first difference at run {first_difference}"
        )


def test_a_changed_record_changes_the_digest(monkeypatch):
    # The digest must see each record's fields, not only the run's latency.
    spec = JOBS["quale [[5,1,3]]"]
    [digest] = job_fingerprint(spec, monkeypatch)
    original_run = FabricSimulator.run

    def shifted_run(sim, initial_placement):
        outcome = original_run(sim, initial_placement)
        outcome.records[max(outcome.records)].turns += 1
        return outcome

    monkeypatch.setattr(FabricSimulator, "run", shifted_run)
    assert job_fingerprint(spec, monkeypatch) != [digest]
