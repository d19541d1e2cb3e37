"""Tests for the router facade: trap selection and instruction planning."""

import functools
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from reference_oracle import OracleRouter, reads_match, select_target_trap, snapshot_pairs
from repro.circuits.circuit import QuantumCircuit
from repro.fabric.builder import FabricSpec, build_fabric, small_fabric
from repro.fabric.geometry import distance_to_point
from repro.routing.compiled import RoutingCoreStats
from repro.routing.congestion import CongestionTracker
from repro.routing.router import (
    ANY_CONGESTION_CHANGE,
    MAX_SNAPSHOTS_PER_PAIR,
    MeetingPoint,
    Router,
    RoutingPolicy,
    channel_key,
)
from repro.technology import PAPER_TECHNOLOGY


def _technology(capacity):
    """The paper's PMD on channels of ``capacity``."""
    return replace(PAPER_TECHNOLOGY, channel_capacity=capacity)


def _totals(plan):
    return (plan.duration, plan.total_moves, plan.total_turns, plan.channels_used)


@pytest.fixture
def two_qubit_instruction():
    circuit = QuantumCircuit()
    circuit.add_qubit("a")
    circuit.add_qubit("b")
    return circuit.cx("a", "b")


@pytest.fixture
def single_qubit_instruction():
    circuit = QuantumCircuit()
    circuit.add_qubit("a")
    return circuit.h("a")


class TestTrapSelection:
    def test_nearest_to_median(self, small_fabric_4x4):
        traps = sorted(small_fabric_4x4.traps)
        a, b = traps[0], traps[-1]
        candidates = select_target_trap(small_fabric_4x4, [a, b], max_candidates=3)
        assert len(candidates) == 3
        median_row = (small_fabric_4x4.trap(a).cell[0] + small_fabric_4x4.trap(b).cell[0]) / 2
        median_col = (small_fabric_4x4.trap(a).cell[1] + small_fabric_4x4.trap(b).cell[1]) / 2
        best = candidates[0]
        others = [t for t in small_fabric_4x4.traps.values() if t.id not in {c.id for c in candidates}]
        best_distance = abs(best.cell[0] - median_row) + abs(best.cell[1] - median_col)
        assert all(
            abs(t.cell[0] - median_row) + abs(t.cell[1] - median_col) >= best_distance
            for t in others
        )

    def test_occupied_traps_excluded(self, small_fabric_4x4):
        traps = sorted(small_fabric_4x4.traps)
        a, b = traps[0], traps[-1]
        all_candidates = select_target_trap(small_fabric_4x4, [a, b], max_candidates=1)
        blocked = select_target_trap(
            small_fabric_4x4, [a, b], occupied=[all_candidates[0].id], max_candidates=1
        )
        assert blocked[0].id != all_candidates[0].id


class TestPlanInstruction:
    def _positions(self, fabric, near=False):
        traps = sorted(fabric.traps)
        if near:
            on_channel = fabric.traps_on(("h", 1, 1))
            return {"a": on_channel[0].id, "b": on_channel[1].id}
        return {"a": traps[0], "b": traps[-1]}

    def test_single_qubit_no_routing(self, small_fabric_4x4, single_qubit_instruction):
        router = Router(small_fabric_4x4, PAPER_TECHNOLOGY, RoutingPolicy())
        congestion = CongestionTracker(small_fabric_4x4, 2)
        route = router.plan_instruction(
            single_qubit_instruction, {"a": 0}, congestion
        )
        assert route.routing_delay == 0
        assert route.target_trap == 0

    def test_missing_placement_raises(self, small_fabric_4x4, two_qubit_instruction):
        router = Router(small_fabric_4x4, PAPER_TECHNOLOGY, RoutingPolicy())
        congestion = CongestionTracker(small_fabric_4x4, 2)
        with pytest.raises(Exception):
            router.plan_instruction(two_qubit_instruction, {"a": 0}, congestion)

    def test_median_policy_moves_both(self, small_fabric_4x4, two_qubit_instruction):
        router = Router(small_fabric_4x4, PAPER_TECHNOLOGY, RoutingPolicy())
        congestion = CongestionTracker(small_fabric_4x4, 2)
        positions = self._positions(small_fabric_4x4)
        route = router.plan_instruction(two_qubit_instruction, positions, congestion)
        assert route is not None
        assert len(route.plans) == 2
        # Both qubits end at the same trap.
        assert all(plan.target_trap == route.target_trap for plan in route.plans)
        # With far-apart operands and a median meeting trap, both should move.
        assert all(plan.duration > 0 for plan in route.plans)

    def test_destination_policy_keeps_target_fixed(self, small_fabric_4x4, two_qubit_instruction):
        policy = RoutingPolicy(meeting_point=MeetingPoint.DESTINATION)
        router = Router(small_fabric_4x4, _technology(1), policy)
        congestion = CongestionTracker(small_fabric_4x4, 1)
        positions = self._positions(small_fabric_4x4)
        route = router.plan_instruction(two_qubit_instruction, positions, congestion)
        assert route.target_trap == positions["b"]
        dest_plan = next(plan for plan in route.plans if plan.qubit == "b")
        assert dest_plan.duration == 0

    def test_center_policy_meets_near_center(self, small_fabric_4x4, two_qubit_instruction):
        policy = RoutingPolicy(meeting_point=MeetingPoint.CENTER)
        router = Router(small_fabric_4x4, PAPER_TECHNOLOGY, policy)
        congestion = CongestionTracker(small_fabric_4x4, 2)
        positions = self._positions(small_fabric_4x4)
        route = router.plan_instruction(two_qubit_instruction, positions, congestion)
        central = small_fabric_4x4.traps_near_center()[0]
        assert route.target_trap == central.id

    def test_dual_move_routing_delay_is_max(self, small_fabric_4x4, two_qubit_instruction):
        router = Router(small_fabric_4x4, PAPER_TECHNOLOGY, RoutingPolicy())
        congestion = CongestionTracker(small_fabric_4x4, 2)
        positions = self._positions(small_fabric_4x4)
        route = router.plan_instruction(two_qubit_instruction, positions, congestion)
        assert route.routing_delay == pytest.approx(max(p.duration for p in route.plans))

    def test_serial_routing_delay_is_sum(self, small_fabric_4x4, two_qubit_instruction):
        router = Router(small_fabric_4x4, _technology(1), RoutingPolicy())
        congestion = CongestionTracker(small_fabric_4x4, 1)
        positions = self._positions(small_fabric_4x4)
        route = router.plan_instruction(two_qubit_instruction, positions, congestion)
        assert route.serial
        assert route.routing_delay == pytest.approx(sum(p.duration for p in route.plans))
        # Serial channel reservations are de-duplicated.
        assert len(route.channels) == len(set(route.channels))

    def test_operands_sharing_trap_need_no_routing(self, small_fabric_4x4, two_qubit_instruction):
        router = Router(small_fabric_4x4, PAPER_TECHNOLOGY, RoutingPolicy())
        congestion = CongestionTracker(small_fabric_4x4, 2)
        trap = sorted(small_fabric_4x4.traps)[0]
        route = router.plan_instruction(
            two_qubit_instruction, {"a": trap, "b": trap}, congestion
        )
        assert route.routing_delay == 0
        assert route.target_trap == trap

    def test_unroutable_when_source_channel_full(self, small_fabric_4x4, two_qubit_instruction):
        router = Router(small_fabric_4x4, PAPER_TECHNOLOGY, RoutingPolicy())
        congestion = CongestionTracker(small_fabric_4x4, 2)
        positions = self._positions(small_fabric_4x4)
        source_trap = small_fabric_4x4.trap(positions["a"])
        congestion.reserve(source_trap.channel_id)
        congestion.reserve(source_trap.channel_id)
        route = router.plan_instruction(two_qubit_instruction, positions, congestion)
        assert route is None

    def test_occupied_traps_avoided_as_meeting_point(self, small_fabric_4x4, two_qubit_instruction):
        router = Router(small_fabric_4x4, PAPER_TECHNOLOGY, RoutingPolicy())
        congestion = CongestionTracker(small_fabric_4x4, 2)
        positions = self._positions(small_fabric_4x4)
        unconstrained = router.plan_instruction(two_qubit_instruction, positions, congestion)
        blocked = router.plan_instruction(
            two_qubit_instruction,
            positions,
            congestion,
            occupied_traps=[unconstrained.target_trap],
        )
        assert blocked.target_trap != unconstrained.target_trap

    @pytest.mark.parametrize("capacity", [1, 2])
    @pytest.mark.parametrize("meeting_point", list(MeetingPoint))
    def test_a_failure_after_trap_selection_wakes_on_any_change(
        self, small_fabric_4x4, two_qubit_instruction, meeting_point, capacity
    ):
        # Every other channel at the source channel's junctions is full, so
        # the source qubit cannot leave its channel and nothing can enter it,
        # while both operand channels have room: every candidate, the
        # operands' own traps included, fails after trap selection.
        policy = RoutingPolicy(meeting_point=meeting_point)
        router = Router(small_fabric_4x4, _technology(capacity), policy)
        congestion = CongestionTracker(small_fabric_4x4, capacity)
        positions = self._positions(small_fabric_4x4)
        source_channel = small_fabric_4x4.trap(positions["a"]).channel_id
        assert source_channel == ("h", 0, 0)
        for channel_id in [("v", 0, 0), ("h", 0, 1), ("v", 0, 1)]:
            for _ in range(capacity):
                congestion.reserve(channel_id)
        blockers: set = set()
        route = router.plan_instruction(
            two_qubit_instruction, positions, congestion, blockers=blockers
        )
        assert route is None
        assert router.stats.dijkstra_calls > 0
        assert blockers == {ANY_CONGESTION_CHANGE}
        # With the source's own channel full as well, the plan fails before
        # any candidate and names that channel alone.
        for _ in range(capacity):
            congestion.reserve(source_channel)
        blockers = set()
        route = router.plan_instruction(
            two_qubit_instruction, positions, congestion, blockers=blockers
        )
        assert route is None
        assert blockers == {channel_key(source_channel)}

    def test_destination_leg_failure_under_overlay_wakes_on_any_change(
        self, small_fabric_4x4, two_qubit_instruction
    ):
        # One candidate, the trap nearest the center, which shares its
        # channel with the source qubit; the operands' own traps are
        # occupied, so there is no fallback.  The channel holds one of two
        # qubits, so the source leg fits, but under its overlay the channel
        # is full and the destination leg cannot enter it.  That failure
        # depends on the source route chosen, so the catch-all key replaces
        # every precise one.
        policy = RoutingPolicy(meeting_point=MeetingPoint.CENTER, trap_candidates=1)
        router = Router(small_fabric_4x4, PAPER_TECHNOLOGY, policy)
        central = small_fabric_4x4.traps_near_center()[0]
        [source] = [
            trap for trap in small_fabric_4x4.traps_on(central.channel_id)
            if trap.id != central.id
        ]
        positions = {"a": source.id, "b": sorted(small_fabric_4x4.traps)[-1]}
        operand_traps = set(positions.values())

        def plan(congestion, blockers):
            return router.plan_instruction(
                two_qubit_instruction, positions, congestion,
                occupied_traps=operand_traps, blockers=blockers,
            )

        idle = CongestionTracker(small_fabric_4x4, 2)
        assert plan(idle, None).target_trap == central.id
        congestion = CongestionTracker(small_fabric_4x4, 2)
        congestion.reserve(central.channel_id)
        blockers: set = set()
        assert plan(congestion, blockers) is None
        assert blockers == {ANY_CONGESTION_CHANGE}
        # With the channel full before planning, the source qubit cannot
        # leave it: the plan fails at once and names that channel alone.
        congestion.reserve(central.channel_id)
        blockers = set()
        assert plan(congestion, blockers) is None
        assert blockers == {channel_key(central.channel_id)}


class TestFullOperandChannel:
    """A two-qubit plan fails before trying any meeting trap when an
    operand's own channel is full and the operands rest in different traps."""

    @pytest.mark.parametrize("capacity", [1, 2])
    @pytest.mark.parametrize("meeting_point", list(MeetingPoint))
    @pytest.mark.parametrize(
        "positions, full",
        [
            ({"a": 0, "b": 23}, ("a",)),
            ({"a": 0, "b": 23}, ("b",)),
            ({"a": 0, "b": 23}, ("a", "b")),
            ({"a": 0, "b": 1}, ("a",)),  # both operands on one channel
        ],
        ids=["source", "destination", "both", "shared-channel"],
    )
    def test_fails_on_the_full_operand_channels_alone(
        self, small_fabric_4x4, two_qubit_instruction, capacity, meeting_point,
        positions, full,
    ):
        policy = RoutingPolicy(meeting_point=meeting_point)
        router = Router(small_fabric_4x4, _technology(capacity), policy)
        congestion = CongestionTracker(small_fabric_4x4, capacity)
        full_channels = {small_fabric_4x4.trap(positions[q]).channel_id for q in full}
        for channel_id in full_channels:
            for _ in range(capacity):
                congestion.reserve(channel_id)
        levels = list(congestion.levels)
        blockers: set = set()
        route = router.plan_instruction(
            two_qubit_instruction, positions, congestion, blockers=blockers
        )
        assert route is None
        assert blockers == {channel_key(channel_id) for channel_id in full_channels}
        # No route-table lookup and no kernel search.
        assert router.stats == RoutingCoreStats()
        assert not router._route_cache
        assert congestion.levels == levels

    def test_operands_sharing_a_trap_in_a_full_channel_meet_there(
        self, small_fabric_4x4, two_qubit_instruction
    ):
        router = Router(small_fabric_4x4, PAPER_TECHNOLOGY, RoutingPolicy())
        congestion = CongestionTracker(small_fabric_4x4, 2)
        trap = small_fabric_4x4.trap(0)
        congestion.reserve(trap.channel_id)
        congestion.reserve(trap.channel_id)
        route = router.plan_instruction(
            two_qubit_instruction, {"a": trap.id, "b": trap.id}, congestion
        )
        assert route.target_trap == trap.id
        assert route.routing_delay == 0

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_meeting_trap_fails_under_the_oracle(self, data):
        # The rule's soundness, checked against the oracle's full scan: with
        # an operand channel full, no trap of the fabric is a meeting trap.
        fabric = _property_fabric(data.draw(st.sampled_from((4, 6)), label="size"))
        capacity = data.draw(st.sampled_from((1, 2)), label="capacity")
        turn_aware = data.draw(st.booleans(), label="turn_aware")
        policy = RoutingPolicy(turn_aware=turn_aware)
        router = OracleRouter(fabric, _technology(capacity), policy)
        traps = sorted(fabric.traps)
        source = data.draw(st.sampled_from(traps), label="source")
        dest = data.draw(st.sampled_from([t for t in traps if t != source]), label="dest")
        congestion = CongestionTracker(fabric, capacity)
        for channel_id in data.draw(
            st.lists(st.sampled_from(sorted(fabric.channels)), max_size=12), label="busy"
        ):
            if not congestion.is_full(channel_id):
                congestion.reserve(channel_id)
        full = data.draw(
            st.sampled_from(((source,), (dest,), (source, dest))), label="full"
        )
        for trap_id in full:
            channel_id = fabric.trap(trap_id).channel_id
            while not congestion.is_full(channel_id):
                congestion.reserve(channel_id)
        circuit = QuantumCircuit()
        circuit.add_qubit("a")
        circuit.add_qubit("b")
        instruction = circuit.cx("a", "b")
        for trap_id in traps:
            assert router._plan_to_candidate(
                instruction, "a", source, "b", dest, fabric.trap(trap_id), congestion
            ) is None, trap_id


@functools.cache
def _property_fabric(size: int):
    """The 4x4 or 6x6 test fabric, built once for every example."""
    return small_fabric(size, size)


class TestRouteCache:
    @pytest.fixture
    def router(self, small_fabric_4x4):
        return Router(small_fabric_4x4, PAPER_TECHNOLOGY, RoutingPolicy())

    @pytest.fixture
    def congestion(self, small_fabric_4x4):
        return CongestionTracker(small_fabric_4x4, 2)

    def _distant_pair(self, fabric):
        traps = sorted(fabric.traps)
        return traps[0], traps[-1]

    def _neighbour_pair(self, fabric):
        """Traps on two adjacent channels: a search that reads few channels."""
        return fabric.traps_on(("h", 0, 0))[0].id, fabric.traps_on(("h", 0, 1))[0].id

    def _read_channels(self, router, source, target, index=0):
        entry = router._route_cache[source, target][index]
        return [channel for channel, _ in snapshot_pairs(entry, router.fabric)]

    def test_entry_snapshots_the_endpoint_channels(self, router, congestion, small_fabric_4x4):
        source, target = self._neighbour_pair(small_fabric_4x4)
        congestion.reserve(("h", 0, 0))
        router.plan_qubit_route("q", source, target, congestion)
        (entry,) = router._route_cache[source, target]
        reads = dict(snapshot_pairs(entry, small_fabric_4x4))
        assert reads[("h", 0, 0)] == 1
        assert reads[("h", 0, 1)] == 0
        # The getter reads its slots in ascending order.
        slots = entry.getter.__reduce__()[1]
        assert list(slots) == sorted(slots)

    def test_hit_survives_traffic_on_channels_the_search_never_read(
        self, router, congestion, small_fabric_4x4
    ):
        source, target = self._neighbour_pair(small_fabric_4x4)
        first = router.plan_qubit_route("q", source, target, congestion)
        far = ("h", 3, 2)
        assert far not in self._read_channels(router, source, target)
        congestion.reserve(far)
        congestion.reserve(far)
        again = router.plan_qubit_route("q", source, target, congestion)
        assert again == first
        assert (router.stats.cache_hits, router.stats.cache_misses) == (1, 1)

    def test_a_state_the_fabric_returns_to_hits_its_older_snapshot(
        self, router, congestion, small_fabric_4x4
    ):
        source, target = self._distant_pair(small_fabric_4x4)
        idle_plan = router.plan_qubit_route("q", source, target, congestion)
        idle_entry = router._route_cache[source, target][0]
        busy = idle_plan.channels_used[1]
        congestion.reserve(busy)
        router.plan_qubit_route("q", source, target, congestion)
        assert router._route_cache[source, target][1] is idle_entry
        congestion.release(busy)
        assert router.plan_qubit_route("q", source, target, congestion) == idle_plan
        assert (router.stats.cache_hits, router.stats.cache_misses) == (1, 2)
        # The hit moved its entry back to the head of the MRU list.
        assert router._route_cache[source, target][0] is idle_entry

    def test_snapshot_list_keeps_the_most_recent_states(self, router, small_fabric_4x4):
        # Roomy channels, so every state below stays routable.
        congestion = CongestionTracker(small_fabric_4x4, MAX_SNAPSHOTS_PER_PAIR + 1)
        source, target = self._distant_pair(small_fabric_4x4)
        source_channel = small_fabric_4x4.trap(source).channel_id
        router.plan_qubit_route("q", source, target, congestion)
        # Every search reads the source channel, so each reservation on it
        # is a new occupancy state for the pair.
        for _ in range(MAX_SNAPSHOTS_PER_PAIR):
            congestion.reserve(source_channel)
            router.plan_qubit_route("q", source, target, congestion)
        assert router.stats.cache_misses == MAX_SNAPSHOTS_PER_PAIR + 1
        assert len(router._route_cache[source, target]) == MAX_SNAPSHOTS_PER_PAIR
        congestion.release(source_channel)
        router.plan_qubit_route("q", source, target, congestion)
        assert router.stats.cache_hits == 1
        for _ in range(MAX_SNAPSHOTS_PER_PAIR - 1):
            congestion.release(source_channel)
        # The idle state was pushed off the list, so it is computed afresh.
        router.plan_qubit_route("q", source, target, congestion)
        assert router.stats.cache_misses == MAX_SNAPSHOTS_PER_PAIR + 2

    def _blocked_distant_pair(self, fabric, congestion):
        """Saturate every channel but the endpoints' own: no route exists."""
        source, target = self._distant_pair(fabric)
        endpoints = {fabric.trap(source).channel_id, fabric.trap(target).channel_id}
        for channel_id in fabric.channels:
            if channel_id not in endpoints:
                congestion.reserve(channel_id)
        return source, target

    def test_a_cached_failure_is_a_hit_without_a_kernel_search(
        self, router, small_fabric_4x4
    ):
        congestion = CongestionTracker(small_fabric_4x4, 1)
        source, target = self._blocked_distant_pair(small_fabric_4x4, congestion)
        assert router.plan_qubit_route("q", source, target, congestion) is None
        assert (router.stats.cache_misses, router.stats.dijkstra_calls) == (1, 1)
        (entry,) = router._route_cache[source, target]
        assert entry.plan is None
        assert router.plan_qubit_route("q", source, target, congestion) is None
        assert (router.stats.cache_hits, router.stats.cache_misses) == (1, 1)
        assert router.stats.dijkstra_calls == 1

    def test_a_cached_failure_serves_a_later_router_on_the_fabric(
        self, router, small_fabric_4x4
    ):
        congestion = CongestionTracker(small_fabric_4x4, 1)
        source, target = self._blocked_distant_pair(small_fabric_4x4, congestion)
        assert router.plan_qubit_route("q", source, target, congestion) is None
        later = Router(small_fabric_4x4, PAPER_TECHNOLOGY, RoutingPolicy())
        assert later.plan_qubit_route("r", source, target, congestion) is None
        assert later.stats == RoutingCoreStats(cache_hits=1)
        # The entry stands only while the channels its search read do:
        # freeing one of them is a miss that searches again.
        congestion.release(("v", 0, 0))
        assert later.plan_qubit_route("r", source, target, congestion) is None
        assert (later.stats.cache_misses, later.stats.dijkstra_calls) == (1, 1)

    def test_short_journeys_bypass_the_cache(self, router, small_fabric_4x4):
        congestion = CongestionTracker(small_fabric_4x4, 1)
        here, there = (trap.id for trap in small_fabric_4x4.traps_on(("h", 1, 1))[:2])
        assert router.plan_qubit_route("q", here, here, congestion).steps == ()
        assert router.plan_qubit_route("q", here, there, congestion) is not None
        congestion.reserve(("h", 1, 1))
        assert router.plan_qubit_route("q", here, there, congestion) is None
        assert (router.stats.cache_hits, router.stats.cache_misses) == (0, 0)
        assert router._route_cache == {}

    def test_repeat_query_hits_cache_and_returns_equal_plan(self, router, congestion, small_fabric_4x4):
        source, target = self._distant_pair(small_fabric_4x4)
        first = router.plan_qubit_route("q", source, target, congestion)
        assert router.stats.cache_misses == 1
        second = router.plan_qubit_route("q", source, target, congestion)
        assert router.stats.cache_hits == 1
        assert second == first

    def test_hit_for_other_qubit_rebinds_name_only(self, router, congestion, small_fabric_4x4):
        source, target = self._distant_pair(small_fabric_4x4)
        first = router.plan_qubit_route("q", source, target, congestion)
        second = router.plan_qubit_route("r", source, target, congestion)
        assert router.stats.cache_hits == 1
        assert second.qubit == "r"
        assert second.steps == first.steps
        assert (second.source_trap, second.target_trap) == (first.source_trap, first.target_trap)
        # The rebound plan is the plan a fresh search makes for "r", totals
        # included (they take no part in ==).
        fresh = OracleRouter(small_fabric_4x4).plan_qubit_route("r", source, target, congestion)
        assert second == fresh
        assert _totals(second) == _totals(fresh)

    def test_congestion_change_invalidates_cache(self, router, congestion, small_fabric_4x4):
        source, target = self._distant_pair(small_fabric_4x4)
        plan = router.plan_qubit_route("q", source, target, congestion)
        for channel_id in plan.channels_used:
            congestion.reserve(channel_id)
        rerouted = router.plan_qubit_route("q", source, target, congestion)
        assert router.stats.cache_misses == 2
        # The occupied channels made the original route more expensive, so
        # the fresh plan reflects the new congestion state.
        assert rerouted is None or rerouted.steps != plan.steps or rerouted == plan

    def test_unroutable_outcome_is_cached_until_release(self, router, small_fabric_4x4):
        congestion = CongestionTracker(small_fabric_4x4, 1)
        source, target = self._distant_pair(small_fabric_4x4)
        source_channel = small_fabric_4x4.trap(source).channel_id
        congestion.reserve(source_channel)
        assert router.plan_qubit_route("q", source, target, congestion) is None
        assert router.plan_qubit_route("q", source, target, congestion) is None
        assert router.stats.cache_hits == 1
        congestion.release(source_channel)
        assert router.plan_qubit_route("q", source, target, congestion) is not None

    def test_shared_graphs_reused_across_routers(self, small_fabric_4x4):
        first = Router(small_fabric_4x4)
        second = Router(small_fabric_4x4)
        assert first.compiled is second.compiled
        oblivious = Router(small_fabric_4x4, policy=RoutingPolicy(turn_aware=False))
        assert oblivious.compiled is not first.compiled
        assert (first.compiled.turn_aware, oblivious.compiled.turn_aware) == (True, False)

    def test_shared_graph_memo_dies_with_the_fabric(self):
        import gc
        import weakref

        # The memo points one way, so reference counting frees the fabric
        # the moment it is dropped, with no collection.
        fabric = small_fabric()
        Router(fabric)
        ref = weakref.ref(fabric)
        gc.disable()
        try:
            del fabric
            assert ref() is None, "the shared-graph memo kept the fabric alive"
        finally:
            gc.enable()

    def test_parallel_temp_reservations_leave_cache_intact(self, small_fabric_4x4, two_qubit_instruction):
        router = Router(small_fabric_4x4, PAPER_TECHNOLOGY, RoutingPolicy())
        congestion = CongestionTracker(small_fabric_4x4, 2)
        traps = sorted(small_fabric_4x4.traps)
        positions = {"a": traps[0], "b": traps[-1]}
        first = router.plan_instruction(two_qubit_instruction, positions, congestion)
        assert first is not None
        misses = router.stats.cache_misses
        # The balanced temporary reservations of dual-operand planning leave
        # every occupancy as it was, so re-planning is answered from cache.
        again = router.plan_instruction(two_qubit_instruction, positions, congestion)
        assert again == first
        assert router.stats.cache_misses == misses
        assert congestion.snapshot() == {}

    def test_same_channel_overlay_leg_bypasses_the_cache(
        self, small_fabric_4x4, two_qubit_instruction
    ):
        router = Router(small_fabric_4x4, PAPER_TECHNOLOGY, RoutingPolicy())
        congestion = CongestionTracker(small_fabric_4x4, 2)
        dest, meeting = next(
            traps[:2]
            for channel in sorted(small_fabric_4x4.channels)
            if len(traps := small_fabric_4x4.traps_on(channel)) >= 2
        )
        far = max(
            small_fabric_4x4.traps,
            key=lambda trap: distance_to_point(small_fabric_4x4.trap(trap).cell, meeting.cell),
        )
        # The source qubit travels to the meeting trap from afar; the
        # destination qubit only shifts along its own channel, under the
        # source leg's temporary reservations.
        route = router._plan_to_candidate(
            two_qubit_instruction, "a", far, "b", dest.id, meeting, congestion
        )
        assert route is not None
        assert router.stats.cache_misses == 1  # the source leg only
        assert set(router._route_cache) == {(far, meeting.id)}


class TestOneCompareCheck:
    """The route table's ``getter(levels) == values`` check against the
    reference per-channel loop, under arbitrary reserve/release churn."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_agrees_with_the_reference_for_every_stored_entry(self, data):
        # A fresh fabric per example, so its route table starts empty.
        fabric = build_fabric(
            FabricSpec(name="prop", junction_rows=4, junction_cols=4, channel_length=3)
        )
        channels, traps = sorted(fabric.channels), sorted(fabric.traps)
        router = Router(fabric)
        congestion = CongestionTracker(fabric, 2)
        circuit = QuantumCircuit()
        circuit.add_qubit("a")
        circuit.add_qubit("b")
        instruction = circuit.cx("a", "b")
        reserved: list = []
        for _ in range(data.draw(st.integers(8, 30), label="ops")):
            op = data.draw(st.sampled_from(("reserve", "release", "route", "gate")), label="op")
            if op == "reserve":
                channel = data.draw(st.sampled_from(channels), label="ch")
                if not congestion.is_full(channel):
                    congestion.reserve(channel)
                    reserved.append(channel)
            elif op == "release" and reserved:
                index = data.draw(st.integers(0, len(reserved) - 1), label="idx")
                congestion.release(reserved.pop(index))
            elif op == "route":
                source = data.draw(st.sampled_from(traps), label="src")
                target = data.draw(st.sampled_from(traps), label="tgt")
                entries = router._route_cache.get((source, target), [])
                valid = [reads_match(snapshot_pairs(e, fabric), congestion) for e in entries]
                expected = entries[valid.index(True)] if True in valid else None
                hits = router.stats.cache_hits
                router.plan_qubit_route("q", source, target, congestion)
                if expected is not None:
                    # The router serves the first entry the reference validates.
                    assert router.stats.cache_hits == hits + 1
                    assert router._route_cache[source, target][0] is expected
                else:
                    assert router.stats.cache_hits == hits
            elif op == "gate":
                # Dual-operand planning also stores overlay and prefetched entries.
                positions = {
                    "a": data.draw(st.sampled_from(traps), label="a"),
                    "b": data.draw(st.sampled_from(traps), label="b"),
                }
                router.plan_instruction(instruction, positions, congestion)
            levels = congestion.levels
            for entries in router._route_cache.values():
                for entry in entries:
                    pairs = snapshot_pairs(entry, fabric)
                    assert (entry.getter(levels) == entry.values) == reads_match(
                        pairs, congestion
                    ), f"check disagrees on {pairs} under {congestion.snapshot()}"
