"""The one route table per fabric: shared by every router, one validity rule."""

from __future__ import annotations

import pytest

from reference_oracle import snapshot_pairs
from repro.circuits.qecc import qecc_encoder
from repro.fabric.builder import small_fabric
from repro.mapper.quale import quale_options
from repro.placement.center import CenterPlacer
from repro.routing.congestion import CongestionTracker
from repro.routing.router import MAX_SNAPSHOTS_PER_PAIR, Router
from repro.runner import ExperimentSpec, FabricCell
from repro.runner.executor import map_spec
from repro.service import execute_job
from repro.sim.engine import FabricSimulator
from repro.pipeline import TECHNOLOGIES

TINY = FabricCell(junction_rows=4, junction_cols=4)


def _spec(**overrides) -> ExperimentSpec:
    defaults = dict(circuit="[[5,1,3]]", placer="center", fabric=TINY)
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestSharedRouteStore:
    """The table lives on the fabric and outlives every run on it."""

    def test_memoised_per_fabric_and_scenario(self):
        fabric = small_fabric()
        table = Router(fabric)._route_cache
        assert Router(fabric)._route_cache is table
        # A different PMD prices routes under another capacity, and a
        # different policy searches another graph: each gets its own.
        assert Router(fabric, TECHNOLOGIES.get("cap-1"))._route_cache is not table
        assert Router(fabric, policy=quale_options().routing_policy())._route_cache is not table
        assert Router(small_fabric())._route_cache is not table

    def test_second_job_hits_routes_planned_by_the_first(self):
        """A worker's memoised fabric carries the table from job to job."""
        fabrics = {}
        first, _ = execute_job(_spec(), fabrics)
        second, _ = execute_job(_spec(), fabrics)
        assert second.latency == first.latency
        assert second.route_cache_misses < first.route_cache_misses
        assert second.dijkstra_calls < first.dijkstra_calls

    def test_shared_cache_does_not_change_results(self):
        fresh = map_spec(_spec())
        fabric = _spec().build_fabric()
        map_spec(_spec(circuit="[[7,1,3]]"), fabric=fabric)
        map_spec(_spec(), fabric=fabric)
        warmed = map_spec(_spec(), fabric=fabric)
        assert warmed.routing_stats.dijkstra_calls < fresh.routing_stats.dijkstra_calls
        assert warmed.latency == fresh.latency
        assert warmed.schedule == fresh.schedule
        assert warmed.final_placement == fresh.final_placement
        assert (warmed.total_moves, warmed.total_turns) == (
            fresh.total_moves,
            fresh.total_turns,
        )

    def test_each_run_reports_only_its_own_routing_counters(self, small_fabric_4x4):
        """Each run counts its routing work on counters of its own."""
        circuit = qecc_encoder("[[5,1,3]]")
        placement = CenterPlacer(small_fabric_4x4).place(circuit)
        sim = FabricSimulator(circuit, small_fabric_4x4)
        first = sim.run(placement)
        second = sim.run(placement)
        assert second.latency == first.latency
        # The replay asks the same questions, all answered by the table.
        assert first.routing_stats.dijkstra_calls > 0
        assert second.routing_stats.dijkstra_calls == 0
        assert second.routing_stats.cache_hits == first.routing_stats.route_queries
        assert second.routing_stats.cache_hit_rate == 1.0


class TestSnapshotValidatedServing:
    """Router-level behaviour of the table across routers on one fabric."""

    @pytest.fixture
    def pair(self, small_fabric_4x4):
        traps = sorted(small_fabric_4x4.traps)
        return traps[0], traps[-1]

    def test_a_later_router_is_served_the_stored_plan(self, small_fabric_4x4, pair):
        first = Router(small_fabric_4x4)
        planned = first.plan_qubit_route("q", *pair, CongestionTracker(small_fabric_4x4, 2))
        second = Router(small_fabric_4x4)
        served = second.plan_qubit_route("r", *pair, CongestionTracker(small_fabric_4x4, 2))
        assert served.qubit == "r"
        assert served.steps == planned.steps
        assert (second.stats.cache_hits, second.stats.cache_misses) == (1, 0)
        assert second.stats.dijkstra_calls == 0

    def test_a_stored_plan_is_not_served_when_a_read_channel_differs(
        self, small_fabric_4x4, pair
    ):
        first = Router(small_fabric_4x4)
        planned = first.plan_qubit_route("q", *pair, CongestionTracker(small_fabric_4x4, 2))
        busy = CongestionTracker(small_fabric_4x4, 2)
        busy.reserve(planned.channels_used[1])
        second = Router(small_fabric_4x4)
        second.plan_qubit_route("q", *pair, busy)
        assert (second.stats.cache_hits, second.stats.cache_misses) == (0, 1)
        assert second.stats.dijkstra_calls == 1
        assert len(second._route_cache[pair]) == 2

    def test_equal_snapshots_are_stored_once(self, small_fabric_4x4, pair):
        congestion = CongestionTracker(small_fabric_4x4, 2)
        routers = [Router(small_fabric_4x4) for _ in range(3)]
        for router in routers:
            router.plan_qubit_route("q", *pair, congestion)
        assert [router.stats.cache_misses for router in routers] == [1, 0, 0]
        assert len(routers[0]._route_cache[pair]) == 1

    @staticmethod
    def _plan_every_state(fabric, pair, states):
        """Plan ``pair`` at source-channel occupancies 0..states-1, each state
        by a fresh router; return the congestion (left at the last state)."""
        # Roomy channels, so every occupancy of the source channel is a
        # routable, distinct state.
        congestion = CongestionTracker(fabric, states)
        source_channel = fabric.trap(pair[0]).channel_id
        for state in range(states):
            if state:
                congestion.reserve(source_channel)
            Router(fabric).plan_qubit_route("q", *pair, congestion)
        return congestion, source_channel

    def test_the_store_keeps_the_newest_states_of_a_pair(self, small_fabric_4x4, pair):
        states = MAX_SNAPSHOTS_PER_PAIR + 2
        congestion, source_channel = self._plan_every_state(
            small_fabric_4x4, pair, states
        )
        stored = Router(small_fabric_4x4)._route_cache[pair]
        assert len(stored) == MAX_SNAPSHOTS_PER_PAIR
        # Newest first: the head holds the last state planned.
        assert [
            dict(snapshot_pairs(entry, small_fabric_4x4))[source_channel]
            for entry in stored
        ] == list(
            range(states - 1, states - 1 - MAX_SNAPSHOTS_PER_PAIR, -1)
        )
        # The oldest state fell off the list, so a later router misses it.
        while congestion.occupancy(source_channel):
            congestion.release(source_channel)
        late = Router(small_fabric_4x4)
        late.plan_qubit_route("q", *pair, congestion)
        assert (late.stats.cache_hits, late.stats.cache_misses) == (0, 1)

    def test_a_hit_moves_to_the_head_for_every_router(self, small_fabric_4x4, pair):
        states = MAX_SNAPSHOTS_PER_PAIR
        congestion, source_channel = self._plan_every_state(
            small_fabric_4x4, pair, states
        )
        # Back to the oldest stored state: a later router hits the tail entry
        # and moves it to the head, so the next miss evicts another state.
        while congestion.occupancy(source_channel):
            congestion.release(source_channel)
        tail = Router(small_fabric_4x4)._route_cache[pair][-1]
        late = Router(small_fabric_4x4)
        late.plan_qubit_route("q", *pair, congestion)
        assert (late.stats.cache_hits, late.stats.cache_misses) == (1, 0)
        stored = late._route_cache[pair]
        assert stored[0] is tail
        assert [
            dict(snapshot_pairs(entry, small_fabric_4x4))[source_channel]
            for entry in stored
        ] == [
            0,
            *range(states - 1, 0, -1),
        ]
