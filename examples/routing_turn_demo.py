"""Demonstrate turn-aware routing (the paper's Figure 5).

Run with::

    python examples/routing_turn_demo.py

Figure 5 of the paper makes two points:

1. In the turn-oblivious graph model (one vertex per junction, Figure 5.b)
   all equal-Manhattan-distance paths have the same cost, even though they
   may differ by several slow turns; the straight "L"-shaped path (1) and the
   staircase paths (2)/(3) look identical to the router.
2. Splitting every junction into a horizontal-plane and a vertical-plane
   vertex joined by a turn edge (Figure 5.c) makes the turn count part of the
   path cost, so Dijkstra picks the single-turn path.

The script reproduces point 1 exactly (the cost model of Eq. 2 with and
without turn edges) and then routes a concrete corner-to-corner journey under
both models.  In this implementation the turn-oblivious router's deterministic
tie-breaking happens to favour straight runs, so the two models often pick the
same physical path on an idle fabric — the printed comparison makes that
explicit.  The cost-model difference of point 1 is what protects the
turn-aware router when ties are broken arbitrarily or congestion perturbs the
weights.
"""

from __future__ import annotations

from repro import PAPER_TECHNOLOGY, small_fabric
from repro.routing import CongestionTracker, MeetingPoint, Router, RoutingPolicy


def l_shaped_and_staircase_costs() -> None:
    """Point 1: equal-distance paths are indistinguishable without turn edges."""
    technology = PAPER_TECHNOLOGY
    # Cost of a path of 24 cells with 1 turn vs the same 24 cells with 5 turns.
    moves = 24
    for turns in (1, 3, 5):
        oblivious_cost = moves * technology.move_delay
        aware_cost = moves * technology.move_delay + turns * technology.turn_delay
        print(
            f"  {moves} moves, {turns} turn(s): turn-oblivious cost = {oblivious_cost:.0f} us, "
            f"turn-aware cost = {aware_cost:.0f} us"
        )
    print(
        "  -> the turn-oblivious model prices all three paths identically; only the\n"
        "     turn-aware model reveals that the single-turn path is fastest.\n"
    )


def routed_paths_under_congestion() -> None:
    """Point 2: with a little congestion the models pick different paths."""
    fabric = small_fabric(junction_rows=4, junction_cols=4, channel_length=3)
    technology = PAPER_TECHNOLOGY
    traps = sorted(fabric.traps)
    source, target = traps[0], traps[-1]
    print(
        f"routing from trap {source} {fabric.trap(source).cell} to trap {target} "
        f"{fabric.trap(target).cell} with one busy channel on the straight path:"
    )
    for turn_aware in (False, True):
        policy = RoutingPolicy(turn_aware=turn_aware, meeting_point=MeetingPoint.MEDIAN)
        router = Router(fabric, technology, policy)
        congestion = CongestionTracker(fabric, technology.channel_capacity)
        # Put one qubit in a horizontal channel on the straight route so that
        # avoiding it saves (n+1)*length - length = 3 cells of weight but
        # costs two extra turns (20 us).
        congestion.reserve(("h", 3, 1))
        plan = router.plan_qubit_route("q", source, target, congestion)
        label = "turn-aware  " if turn_aware else "turn-oblivious"
        print(
            f"  {label}: {plan.total_moves} moves, {plan.total_turns} turns, "
            f"travel time {plan.duration:.0f} us, "
            f"channels {[str(c) for c in plan.channels_used]}"
        )
    print(
        "  -> both routers reach the minimal-turn path here; the turn-aware model's\n"
        "     advantage is that it *guarantees* this choice instead of relying on\n"
        "     favourable tie-breaking (see the cost comparison above)."
    )


def main() -> None:
    print("Point 1 - path costs seen by the router (Figure 5.b vs 5.c):")
    l_shaped_and_staircase_costs()
    print("Point 2 - actual routing decisions under congestion:")
    routed_paths_under_congestion()


if __name__ == "__main__":
    main()
