"""Tests for the Dijkstra search and route-plan expansion."""

import math

import pytest

from reference_oracle import channel_exit_times, shortest_route
from repro.routing.congestion import CongestionTracker
from repro.routing.graph_model import HORIZONTAL_PLANE, VERTICAL_PLANE, RoutingGraph
from repro.routing.path import StepKind, expand_route, stationary_plan
from repro.routing.weights import edge_weight
from repro.technology import PAPER_TECHNOLOGY


def _weight_fn(graph, congestion):
    return lambda edge: edge_weight(edge, congestion, PAPER_TECHNOLOGY)


class TestShortestRoute:
    def test_same_node_source_and_target(self, small_fabric_4x4):
        graph = RoutingGraph(small_fabric_4x4)
        congestion = CongestionTracker(small_fabric_4x4, 2)
        node = ((0, 0), HORIZONTAL_PLANE)
        result = shortest_route(graph, {node: 1.0}, {node: 2.0}, _weight_fn(graph, congestion))
        assert result is not None
        assert result.cost == pytest.approx(3.0)
        assert result.edges == ()

    def test_straight_line_cost(self, small_fabric_4x4):
        graph = RoutingGraph(small_fabric_4x4)
        congestion = CongestionTracker(small_fabric_4x4, 2)
        start = ((0, 0), HORIZONTAL_PLANE)
        goal = ((0, 3), HORIZONTAL_PLANE)
        result = shortest_route(graph, {start: 0.0}, {goal: 0.0}, _weight_fn(graph, congestion))
        # Three horizontal channels of length 3, no turns.
        assert result.cost == pytest.approx(9.0)
        assert all(not e.is_turn for e in result.edges)

    def test_turn_included_when_changing_plane(self, small_fabric_4x4):
        graph = RoutingGraph(small_fabric_4x4)
        congestion = CongestionTracker(small_fabric_4x4, 2)
        start = ((0, 0), HORIZONTAL_PLANE)
        goal = ((1, 1), VERTICAL_PLANE)
        result = shortest_route(graph, {start: 0.0}, {goal: 0.0}, _weight_fn(graph, congestion))
        # One horizontal channel (3) + one turn (10) + one vertical channel (3).
        assert result.cost == pytest.approx(16.0)
        assert sum(1 for e in result.edges if e.is_turn) == 1

    def test_congestion_steers_path(self, small_fabric_4x4):
        graph = RoutingGraph(small_fabric_4x4, turn_aware=False)
        congestion = CongestionTracker(small_fabric_4x4, 2)
        start = ((0, 0), "*")
        goal = ((0, 2), "*")
        direct = shortest_route(graph, {start: 0.0}, {goal: 0.0}, _weight_fn(graph, congestion))
        assert direct.cost == pytest.approx(6.0)
        congestion.reserve(("h", 0, 0))
        congestion.reserve(("h", 0, 0))  # now full
        detour = shortest_route(graph, {start: 0.0}, {goal: 0.0}, _weight_fn(graph, congestion))
        assert detour is not None
        assert ("h", 0, 0) not in [e.channel_id for e in detour.edges]
        assert detour.cost > direct.cost

    def test_unreachable_when_everything_full(self, tiny_fabric):
        graph = RoutingGraph(tiny_fabric)
        congestion = CongestionTracker(tiny_fabric, 1)
        for channel in tiny_fabric.channels:
            congestion.reserve(channel)
        start = ((0, 0), HORIZONTAL_PLANE)
        goal = ((1, 2), HORIZONTAL_PLANE)
        result = shortest_route(graph, {start: 0.0}, {goal: 0.0}, _weight_fn(graph, congestion))
        assert result is None

    def test_infinite_seeds_rejected(self, tiny_fabric):
        graph = RoutingGraph(tiny_fabric)
        congestion = CongestionTracker(tiny_fabric, 2)
        result = shortest_route(
            graph,
            {((0, 0), HORIZONTAL_PLANE): math.inf},
            {((0, 1), HORIZONTAL_PLANE): 0.0},
            _weight_fn(graph, congestion),
        )
        assert result is None

    def test_picks_cheaper_of_two_sources(self, small_fabric_4x4):
        graph = RoutingGraph(small_fabric_4x4)
        congestion = CongestionTracker(small_fabric_4x4, 2)
        goal = ((0, 2), HORIZONTAL_PLANE)
        result = shortest_route(
            graph,
            {((0, 0), HORIZONTAL_PLANE): 50.0, ((0, 1), HORIZONTAL_PLANE): 0.0},
            {goal: 0.0},
            _weight_fn(graph, congestion),
        )
        assert result.entry_node == ((0, 1), HORIZONTAL_PLANE)
        assert result.cost == pytest.approx(3.0)


class TestExpandRoute:
    def test_stationary_plan(self):
        plan = stationary_plan("q", 7)
        assert plan.duration == 0
        assert plan.total_moves == 0
        assert plan.channels_used == ()

    def test_same_trap(self, small_fabric_4x4):
        trap = small_fabric_4x4.trap(0)
        plan = expand_route(
            small_fabric_4x4, PAPER_TECHNOLOGY, "q", trap, trap, None, ()
        )
        assert plan.duration == 0

    def test_same_channel(self, small_fabric_4x4):
        traps = small_fabric_4x4.traps_on(("h", 0, 0))
        a, b = traps[0], traps[1]
        plan = expand_route(small_fabric_4x4, PAPER_TECHNOLOGY, "q", a, b, None, ())
        # 1 move out + |offset difference| + 1 move in, 2 turns.
        expected_moves = 2 + abs(a.offset - b.offset)
        assert plan.total_moves == expected_moves
        assert plan.total_turns == 2
        assert plan.duration == pytest.approx(expected_moves * 1.0 + 2 * 10.0)
        assert plan.channels_used == (("h", 0, 0),)

    def test_totals_are_the_sums_of_the_steps_for_every_trap_pair(self, small_fabric_4x4):
        # Stationary, same-channel and cross-channel plans alike: each total
        # is what summing the plan's steps gives, and the repr shows only
        # the four defining fields.
        from repro.routing.router import Router

        router = Router(small_fabric_4x4, PAPER_TECHNOLOGY)
        congestion = CongestionTracker(small_fabric_4x4, 2)
        for source in small_fabric_4x4.traps:
            for target in small_fabric_4x4.traps:
                plan = router.plan_qubit_route("q", source, target, congestion)
                steps = plan.steps
                duration = sum(step.duration for step in steps)
                assert (plan.duration, type(plan.duration)) == (duration, type(duration))
                assert plan.total_moves == sum(step.moves for step in steps)
                assert plan.total_turns == sum(step.turns for step in steps)
                assert plan.channels_used == tuple(
                    step.channel_id for step in steps if step.channel_id is not None
                )
                assert repr(plan) == (
                    f"RoutePlan(qubit='q', source_trap={source}, "
                    f"target_trap={target}, steps={steps!r})"
                )

    def test_channel_exit_times_monotonic(self, small_fabric_4x4):
        from repro.routing.router import Router, RoutingPolicy
        from repro.routing.congestion import CongestionTracker

        router = Router(small_fabric_4x4, PAPER_TECHNOLOGY, RoutingPolicy())
        congestion = CongestionTracker(small_fabric_4x4, 2)
        traps = sorted(small_fabric_4x4.traps)
        plan = router.plan_qubit_route("q", traps[0], traps[-1], congestion)
        exits = channel_exit_times(plan, 100.0)
        times = [t for _, t in exits]
        assert times == sorted(times)
        assert times[-1] <= 100.0 + plan.duration + 1e-9

    def test_turns_charged_for_orientation_changes(self, small_fabric_4x4):
        from repro.routing.router import Router, RoutingPolicy
        from repro.routing.congestion import CongestionTracker

        # Route between traps on a horizontal channel in row 0 and row 3:
        # the journey must use vertical channels, hence at least 2 junction
        # turns on top of the 2 trap-access turns.
        router = Router(small_fabric_4x4, PAPER_TECHNOLOGY, RoutingPolicy(turn_aware=False))
        congestion = CongestionTracker(small_fabric_4x4, 2)
        source = small_fabric_4x4.traps_on(("h", 0, 0))[0]
        target = small_fabric_4x4.traps_on(("h", 3, 2))[0]
        plan = router.plan_qubit_route("q", source.id, target.id, congestion)
        assert plan.total_turns >= 4
