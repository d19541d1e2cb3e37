"""Figure 5 — turn-aware vs turn-oblivious routing graph models.

Figure 5 of the paper shows that on the junction-only graph (5.b) all
equal-Manhattan-distance paths cost the same, even though they differ by many
slow turns, while the split-vertex model (5.c) prices every direction change
at ``T_turn`` and therefore lets Dijkstra find the genuinely fastest path.

The benchmark regenerates that comparison: it prices the same family of
corner-to-corner paths under both cost models, times a single-qubit route
query on both graphs of the full 45x85 fabric, and records the realised
move/turn counts of the chosen routes.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import format_comparison_table


from report_util import emit as _emit
from repro.fabric.builder import quale_fabric
from repro.routing.congestion import CongestionTracker
from repro.routing.router import Router, RoutingPolicy
from repro.technology import PAPER_TECHNOLOGY


def _route_once(turn_aware: bool):
    fabric = quale_fabric()
    router = Router(fabric, PAPER_TECHNOLOGY, RoutingPolicy(turn_aware=turn_aware))
    congestion = CongestionTracker(fabric, PAPER_TECHNOLOGY.channel_capacity)
    traps = sorted(fabric.traps)
    return router.plan_qubit_route("q", traps[0], traps[-1], congestion)


@pytest.mark.parametrize("turn_aware", [False, True])
def test_fig5_route_query(benchmark, turn_aware):
    plan = benchmark.pedantic(_route_once, args=(turn_aware,), rounds=3, iterations=1)
    benchmark.extra_info.update(
        turn_aware=turn_aware,
        moves=plan.total_moves,
        turns=plan.total_turns,
        travel_us=plan.duration,
    )
    assert plan.duration == pytest.approx(
        plan.total_moves * PAPER_TECHNOLOGY.move_delay
        + plan.total_turns * PAPER_TECHNOLOGY.turn_delay
    )


def test_fig5_cost_model_comparison(benchmark):
    """Price the Figure 5 path family under both cost models."""

    def build_rows():
        rows = []
        moves = 24
        for turns in (1, 3, 5):
            oblivious = moves * PAPER_TECHNOLOGY.move_delay
            aware = oblivious + turns * PAPER_TECHNOLOGY.turn_delay
            rows.append((f"{moves} moves, {turns} turn(s)", oblivious, aware, aware - oblivious))
        return rows

    rows = benchmark(build_rows)
    _emit(
        format_comparison_table(
            "Figure 5 - cost of equal-Manhattan-distance paths under both graph models",
            ["path", "turn-oblivious cost (us)", "turn-aware cost (us)", "hidden turn cost (us)"],
            rows,
        )
    )
    oblivious_costs = {row[1] for row in rows}
    aware_costs = [row[2] for row in rows]
    # The oblivious model cannot tell the paths apart; the aware model ranks
    # them by turn count.
    assert len(oblivious_costs) == 1
    assert aware_costs == sorted(aware_costs)
