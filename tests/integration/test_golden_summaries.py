"""Golden-file determinism regression for the routing/simulation core.

Full mapper runs on the Table 1 benchmark circuits must produce
byte-identical :meth:`~repro.mapper.result.MappingResult.summary` output
across refactors of the performance core.  The summaries are snapshotted
under ``tests/integration/golden/`` with the one volatile line (wall-clock
CPU time) normalised; everything else — latency, placements, schedule-derived
moves/turns, congestion delay and the routing-core counters — must match
exactly.

A second gate maps every case again under the reference oracle (cache-less
routing on the reference kernel, ungated event loop; see
``tests/reference_oracle.py``): the issue order and final placement must be
identical, and the summaries must agree line for line once the counters of
the routing cache, the kernel and the event loop — which describe how the
work was done, not what was computed — are stripped.

Three cases also pin their full control trace (``<name>.trace.txt``): one
line per micro-command, its ``repr`` in ``trace.commands`` order, so the
instruction indices and the order of commands that start together are
fixed as well.  ``513-mvfb`` has a backward winner, so its trace comes
through :meth:`~repro.sim.trace.ControlTrace.reversed_trace`.

Regenerate the snapshots after an *intentional* output change with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/integration/test_golden_summaries.py
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import pytest

from reference_oracle import assert_same_mapping, oracle_mode
from repro import MapperOptions, QsprMapper, small_fabric
from repro.circuits.qecc import qecc_encoder
from repro.qidg.graph import build_qidg
from repro.sim.trace import ControlTrace

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The Table 1 circuits (the default placer-comparison set of the benchmark
#: harness), each mapped deterministically; one MVFB search case covers the
#: seeded placement path.
CASES: tuple[tuple[str, str, dict], ...] = (
    ("513-center", "[[5,1,3]]", {"placer": "center"}),
    ("713-center", "[[7,1,3]]", {"placer": "center"}),
    ("913-center", "[[9,1,3]]", {"placer": "center"}),
    ("23117-center", "[[23,1,7]]", {"placer": "center"}),
    ("513-mvfb", "[[5,1,3]]", {"placer": "mvfb", "num_seeds": 2, "random_seed": 0}),
)

#: Cases whose control trace is snapshotted command by command.
TRACE_CASES = tuple(case for case in CASES if case[0] in ("513-center", "913-center", "513-mvfb"))

_CPU_LINE = re.compile(r"^(  mapping CPU time  : ).*$", re.MULTILINE)
#: Work counters; legitimately differ from the oracle's, which runs without
#: a route cache, counts no heap pops and polls at every event timestamp.
_CORE_LINES = re.compile(
    r"^  (route cache|dijkstra core|event loop)\s*: .*\n", re.MULTILINE
)


def _map(circuit_name: str, mapper_kwargs: dict):
    options = MapperOptions(**mapper_kwargs)
    fabric = small_fabric(junction_rows=6, junction_cols=6)
    return QsprMapper(options).map(qecc_encoder(circuit_name), fabric)


def _normalise(summary: str) -> str:
    return _CPU_LINE.sub(r"\1<normalised>", summary) + "\n"


def _strip_core_counters(summary: str) -> str:
    return _CORE_LINES.sub("", summary)


def _check_golden(golden_path: Path, text: str) -> None:
    if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        golden_path.write_text(text)
    assert golden_path.exists(), (
        f"missing golden snapshot {golden_path}; generate it with "
        "REPRO_UPDATE_GOLDEN=1"
    )
    assert text == golden_path.read_text()


@pytest.mark.parametrize("name, circuit, kwargs", CASES, ids=[c[0] for c in CASES])
def test_summary_matches_golden_snapshot(name, circuit, kwargs):
    _check_golden(GOLDEN_DIR / f"{name}.txt", _normalise(_map(circuit, kwargs).summary()))


@pytest.mark.parametrize("name, circuit, kwargs", CASES, ids=[c[0] for c in CASES])
def test_mapping_matches_reference_oracle(name, circuit, kwargs):
    result = _map(circuit, kwargs)
    with oracle_mode():
        oracle = _map(circuit, kwargs)
    assert_same_mapping(result, oracle)
    assert _strip_core_counters(_normalise(result.summary())) == _strip_core_counters(
        _normalise(oracle.summary())
    )


@pytest.mark.parametrize(
    "name, circuit, kwargs", TRACE_CASES, ids=[c[0] for c in TRACE_CASES]
)
def test_trace_matches_golden_snapshot(name, circuit, kwargs):
    trace = _map(circuit, kwargs).trace
    _check_golden(
        GOLDEN_DIR / f"{name}.trace.txt",
        "".join(f"{command!r}\n" for command in trace.commands),
    )


def test_only_the_winning_run_builds_a_trace(monkeypatch):
    """An MVFB search of 16 placement runs builds the commands of one trace."""
    added = []
    original_add = ControlTrace.add

    def counting_add(trace, command):
        added.append(command)
        original_add(trace, command)

    monkeypatch.setattr(ControlTrace, "add", counting_add)
    result = _map("[[5,1,3]]", {"placer": "mvfb", "num_seeds": 2, "random_seed": 0})
    assert result.placement_runs == 16
    assert len(added) == len(result.trace) > 0


def test_backward_winner_is_reported_as_a_forward_execution():
    """``513-mvfb`` wins on a backward pass and reports its forward equivalent."""
    circuit_name, kwargs = next((c, k) for n, c, k in CASES if n == "513-mvfb")
    result = _map(circuit_name, kwargs)
    assert result.direction == "backward"
    assert build_qidg(qecc_encoder(circuit_name)).is_valid_order(result.schedule)
    assert result.trace.makespan == result.latency == 610.0
