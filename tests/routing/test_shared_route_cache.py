"""Cross-job shared route cache: hits across jobs, identical results."""

from __future__ import annotations

import pytest

from repro.routing.congestion import CongestionTracker
from repro.routing.router import MAX_SHARED_SNAPSHOTS_PER_PAIR, Router
from repro.runner import ExperimentSpec, FabricCell
from repro.runner.executor import map_spec
from repro.routing.shared_cache import SharedRouteStore
from repro.service import execute_job

TINY = FabricCell(junction_rows=4, junction_cols=4)


def _spec(**overrides) -> ExperimentSpec:
    defaults = dict(circuit="[[5,1,3]]", placer="center", fabric=TINY)
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestSharedRouteStore:
    def test_memoised_per_fabric_and_scenario(self):
        from repro.fabric import small_fabric
        from repro.scheduling import SchedulingPolicy
        from repro.technology import PAPER_TECHNOLOGY, LEGACY_TECHNOLOGY

        fabric = small_fabric()
        policy = SchedulingPolicy()
        a = SharedRouteStore.shared(fabric, technology=PAPER_TECHNOLOGY, policy=policy)
        b = SharedRouteStore.shared(fabric, technology=PAPER_TECHNOLOGY, policy=policy)
        assert a is b  # same fabric + scenario -> same store
        c = SharedRouteStore.shared(fabric, technology=LEGACY_TECHNOLOGY, policy=policy)
        assert c is not a  # a different PMD prices routes differently

    def test_second_job_hits_routes_planned_by_the_first(self):
        """The service worker fix: repeated submissions stop re-planning."""
        fabrics = {}
        first, _ = execute_job(_spec(), fabrics)
        second, _ = execute_job(_spec(num_seeds=2), fabrics)

        (fabric,) = fabrics.values()
        (store,) = fabric.__dict__["_shared_route_stores"].values()
        assert store.stores > 0
        assert store.hits > 0  # job 2 reused plans stored by job 1
        # The v2 cache prefetches candidate legs, so *total* hits saturate in
        # both jobs; the cross-job reuse is visible in the shared-hit subset.
        assert second.route_cache_shared_hits > 0
        assert second.route_cache_hits >= first.route_cache_hits

    def test_shared_cache_does_not_change_results(self):
        baseline = map_spec(_spec())
        shared = map_spec(_spec(), shared_route_cache=True)
        assert shared.latency == baseline.latency
        assert shared.total_moves == baseline.total_moves
        assert shared.total_turns == baseline.total_turns

    def test_default_path_keeps_the_shared_store_off(self):
        from repro.fabric import small_fabric

        spec = _spec()
        result = map_spec(spec)
        assert result.latency > 0
        # map_spec built its own fabric; nothing hung a shared store on it.
        assert "_shared_route_stores" not in small_fabric().__dict__


class TestSnapshotValidatedServing:
    """Router-level behaviour of the store: one validity rule across runs."""

    @pytest.fixture
    def pair(self, small_fabric_4x4):
        traps = sorted(small_fabric_4x4.traps)
        return traps[0], traps[-1]

    def test_a_later_router_is_served_the_stored_plan(self, small_fabric_4x4, pair):
        store = SharedRouteStore()
        first = Router(small_fabric_4x4, shared_store=store)
        planned = first.plan_qubit_route("q", *pair, CongestionTracker(small_fabric_4x4, 2))
        second = Router(small_fabric_4x4, shared_store=store)
        served = second.plan_qubit_route("r", *pair, CongestionTracker(small_fabric_4x4, 2))
        assert served.qubit == "r"
        assert served.steps == planned.steps
        assert (store.stores, store.hits) == (1, 1)
        assert (second.stats.shared_hits, second.stats.cache_misses) == (1, 0)
        assert second.stats.dijkstra_calls == 0
        # The hit seeded the borrowing router's own cache.
        second.plan_qubit_route("r", *pair, CongestionTracker(small_fabric_4x4, 2))
        assert (second.stats.cache_hits, store.hits) == (2, 1)

    def test_a_stored_plan_is_not_served_when_a_read_channel_differs(
        self, small_fabric_4x4, pair
    ):
        store = SharedRouteStore()
        first = Router(small_fabric_4x4, shared_store=store)
        planned = first.plan_qubit_route("q", *pair, CongestionTracker(small_fabric_4x4, 2))
        busy = CongestionTracker(small_fabric_4x4, 2)
        busy.reserve(planned.channels_used[1])
        second = Router(small_fabric_4x4, shared_store=store)
        second.plan_qubit_route("q", *pair, busy)
        assert (second.stats.shared_hits, second.stats.cache_misses) == (0, 1)
        assert store.hits == 0
        assert len(store.entries[pair]) == 2

    def test_the_store_keeps_the_newest_states_of_a_pair(self, small_fabric_4x4, pair):
        store = SharedRouteStore()
        states = MAX_SHARED_SNAPSHOTS_PER_PAIR + 2
        # Roomy channels, so every occupancy of the source channel is a
        # routable, distinct state; each state is planned by a fresh router.
        congestion = CongestionTracker(small_fabric_4x4, states)
        source_channel = small_fabric_4x4.trap(pair[0]).channel_id
        for _ in range(states):
            Router(small_fabric_4x4, shared_store=store).plan_qubit_route(
                "q", *pair, congestion
            )
            congestion.reserve(source_channel)
        assert store.stores == states
        stored = store.entries[pair]
        assert len(stored) == MAX_SHARED_SNAPSHOTS_PER_PAIR
        # Newest first: the head holds the last state planned.
        assert dict(stored[0].reads)[source_channel] == states - 1

    def test_equal_snapshots_are_stored_once(self, small_fabric_4x4, pair):
        store = SharedRouteStore()
        first = Router(small_fabric_4x4, shared_store=store)
        second = Router(small_fabric_4x4, shared_store=store)
        # Two racing workers: hiding the first publication makes the second
        # router miss and publish too; the first write then lands late and
        # is dropped because an entry for the same state is already stored.
        congestion = CongestionTracker(small_fabric_4x4, 2)
        first.plan_qubit_route("q", *pair, congestion)
        stored = store.entries.pop(pair)
        second.plan_qubit_route("q", *pair, congestion)
        first._store_shared(store, pair, first._route_cache[pair][0])
        assert store.stores == 3
        assert len(store.entries[pair]) == 1
        assert store.entries[pair][0].reads == stored[0].reads
