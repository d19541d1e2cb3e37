"""Every fast path maps exactly what the reference oracle maps.

The oracle (``tests/reference_oracle.py``) plans every leg from scratch on
the reference kernel and drives the real event loop with the wake-set gating
off.  Each case maps the same input twice — normally and as the oracle — and
requires the same latency, issue order, movement, turns, congestion delay and
final placement.  The golden cases are held to the oracle in
``tests/integration/test_golden_summaries.py``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from reference_oracle import (
    OracleRouter,
    assert_same_mapping,
    oracle_mode,
    reference_attachment_costs,
    reference_occupied_traps,
)
from repro.circuits.qecc import BENCHMARK_NAMES
from repro.fabric.builder import FabricSpec, build_fabric, small_fabric
from repro.mapper.options import MapperOptions
from repro.mapper.qpos import qpos_options
from repro.mapper.quale import quale_options
from repro.placement.center import CenterPlacer
from repro.pipeline.circuits import resolve_circuit
from repro.pipeline.fabrics import resolve_fabric
from repro.pipeline.stages import run_pipeline
from repro.pipeline.technologies import resolve_technology
from repro.routing.congestion import CongestionTracker
from repro.routing.router import MeetingPoint, Router, RoutingPolicy
from repro.sim import engine
from repro.sim.engine import FabricSimulator

SCHEDULERS = ("qspr", "quale-alap", "qpos-dependents", "qpos-path-delay")
TECHNOLOGIES = ("paper", "cap-1", "fast-turn")
#: One mid-size circuit for the axes that vary the router, not the input.
LAYERED = "random-layered:q=12:d=10:fill=1.0:locality=2:seed=21"
#: Capacity-1 channels with dense layers: the heavy-parking regime.
CONGESTED = "random-layered:q=16:d=12:fill=1.0:locality=2:seed={seed}"
#: A custom PMD with fractional delays: route totals are inexact float sums,
#: so a lower bound can round above a bound that equals the optimum.
FRACTIONAL_PMD = {"move_delay": 0.3, "turn_delay": 2.7}


@pytest.fixture(scope="module")
def fabric():
    return small_fabric(junction_rows=6, junction_cols=6)


def _map(circuit_name, fabric, options):
    circuit = resolve_circuit(circuit_name)
    return run_pipeline(circuit, fabric, options=options)


def _map_both(circuit_name, fabric, options):
    result = _map(circuit_name, fabric, options)
    with oracle_mode():
        oracle = _map(circuit_name, fabric, options)
    assert_same_mapping(result, oracle)
    return result, oracle


def _options(technology="paper", scheduler="qspr", **changes):
    return MapperOptions(
        technology=resolve_technology(technology),
        scheduler=scheduler,
        **{"placer": "center", **changes},
    )


class TestMappingsMatchTheOracle:
    @pytest.mark.parametrize("technology", TECHNOLOGIES)
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_scheduler_technology_grid(self, fabric, scheduler, technology):
        # The seed varies per cell so the grid covers 12 distinct circuits,
        # while staying reproducible run to run.
        seed = 11 * SCHEDULERS.index(scheduler) + TECHNOLOGIES.index(technology)
        name = f"random-layered:q=12:d=10:fill=1.0:locality=2:seed={seed}"
        _map_both(name, fabric, _options(technology, scheduler))

    @pytest.mark.parametrize("seed", range(4))
    def test_congested_capacity_one_runs_skip_polls(self, fabric, seed):
        # Capacity-1 channels with dense layers force heavy parking — the
        # regime where gated retries could plausibly diverge from polling.
        name = CONGESTED.format(seed=seed)
        result, oracle = _map_both(name, fabric, _options("cap-1"))
        assert result.event_stats.skipped_polls > 0
        assert result.event_stats.issue_polls < oracle.event_stats.issue_polls
        assert oracle.event_stats.skipped_polls == 0

    @pytest.mark.parametrize("scheduler", ["qpos-dependents", "qpos-path-delay"])
    def test_congested_runs_skip_polls_under_every_priority_order(
        self, fabric, scheduler
    ):
        # Every priority-order scheduler runs the gated loop, and each ranks
        # the parked instructions differently, so each retries them in a
        # different order.
        name = CONGESTED.format(seed=4)
        result, oracle = _map_both(name, fabric, _options("cap-1", scheduler))
        assert result.event_stats.skipped_polls > 0
        assert result.event_stats.issue_polls < oracle.event_stats.issue_polls

    # [[5,1,3]] never repeats a trap pair here, so it would not reach the
    # cache; the golden cases hold it to the oracle.
    @pytest.mark.parametrize("circuit", BENCHMARK_NAMES[1:])
    def test_qecc_encoders(self, fabric, circuit):
        result, _ = _map_both(circuit, fabric, _options())
        assert result.routing_stats.cache_hits > 0

    @pytest.mark.parametrize("circuit", BENCHMARK_NAMES)
    def test_fractional_technology(self, fabric, circuit):
        # A search's bound is often exactly its optimum; pruning must leave
        # the optimal route alone when ``candidate + h`` rounds above it.
        options = _options(FRACTIONAL_PMD, placer="mvfb", num_seeds=3)
        _map_both(circuit, fabric, options)

    @pytest.mark.parametrize("circuit", BENCHMARK_NAMES)
    @pytest.mark.parametrize("preset", [quale_options, qpos_options])
    def test_prior_tool_presets(self, fabric, preset, circuit):
        # QUALE: barrier scheduling on capacity-1 channels; QPOS: destination
        # meeting traps on capacity-1 channels.  Both run turn-blind.
        _map_both(circuit, fabric, preset())

    def test_shared_store_double_run(self):
        # The same options twice on one private fabric, nothing opted in, so
        # the route table memoised on the fabric dies with the test.  The
        # second run is served the plans the first one stored, runs fewer
        # kernel searches, and must still map exactly what the oracle maps.
        fabric = small_fabric(junction_rows=6, junction_cols=6)
        name = "random-layered:q=16:d=12:fill=1.0:locality=2:seed=5"
        options = _options("cap-1")
        first, _ = _map_both(name, fabric, options)
        second, _ = _map_both(name, fabric, options)
        assert second.latency == first.latency
        assert second.routing_stats.dijkstra_calls < first.routing_stats.dijkstra_calls
        assert second.routing_stats.cache_hit_rate > first.routing_stats.cache_hit_rate

    def test_instruction_records(self, small_fabric_4x4, calibrated_513):
        placement = CenterPlacer(small_fabric_4x4).place(calibrated_513)
        outcome = FabricSimulator(calibrated_513, small_fabric_4x4).run(placement)
        with oracle_mode():
            oracle = FabricSimulator(calibrated_513, small_fabric_4x4).run(placement)
        assert_same_mapping(outcome, oracle)
        for index, record in oracle.records.items():
            twin = outcome.records[index]
            assert (
                twin.issue_time,
                twin.gate_start,
                twin.finish_time,
                twin.target_trap,
                twin.moves,
                twin.turns,
            ) == (
                record.issue_time,
                record.gate_start,
                record.finish_time,
                record.target_trap,
                record.moves,
                record.turns,
            )


class TestRoutingAxesMatchTheOracle:
    """The router and mapper options the scheduler grid leaves at defaults."""

    @pytest.mark.parametrize(
        ("meeting_point", "capacity"),
        [
            (MeetingPoint.MEDIAN, 1),
            (MeetingPoint.MEDIAN, 2),
            (MeetingPoint.DESTINATION, 1),
            (MeetingPoint.DESTINATION, 2),
            (MeetingPoint.CENTER, 1),
            (MeetingPoint.CENTER, 2),
        ],
        ids=[
            "median-cap1",
            "median-cap2",
            "destination-cap1",
            "destination-cap2",
            "center-cap1",
            "center-cap2",
        ],
    )
    def test_meeting_points(self, fabric, meeting_point, capacity):
        # Each meeting point ranks its own candidates; capacity 1 plans the
        # legs serially, capacity 2 plans the destination leg under the
        # source leg's temporary reservations.
        options = _options(meeting_point=meeting_point, channel_capacity=capacity)
        _map_both(LAYERED, fabric, options)

    @pytest.mark.parametrize("capacity", [1, 2])
    def test_turn_blind_path_selection(self, fabric, capacity):
        # The turn-blind graph has zero-cost turn edges, so the batched
        # candidate prefill stands down and every leg is a demand query.
        options = _options(turn_aware_routing=False, channel_capacity=capacity)
        _map_both(LAYERED, fabric, options)

    @pytest.mark.parametrize("trap_candidates", [1, 2, 8])
    def test_candidate_counts(self, fabric, trap_candidates):
        # One candidate never prefetches; with more than two, a first
        # candidate that fails batch-prefetches the rest.
        options = _options("cap-1", trap_candidates=trap_candidates)
        _map_both(CONGESTED.format(seed=6), fabric, options)

    @pytest.mark.parametrize("technology", ["legacy", "slow-turn", "slow-2q"])
    def test_other_technologies(self, fabric, technology):
        _map_both(LAYERED, fabric, _options(technology))

    def test_barrier_scheduling_under_qspr_routing(self, fabric):
        # QUALE's level-by-level issue, but with turn-aware median routing on
        # capacity-2 channels.
        _map_both(LAYERED, fabric, _options(barrier_scheduling=True))

    @pytest.mark.parametrize("fabric_name", ["small", "linear", "3x7c3", "5x5c5"])
    def test_fabric_geometries(self, fabric_name):
        _map_both(LAYERED, resolve_fabric(fabric_name), _options())

    def test_paper_fabric(self):
        _map_both("[[9,1,3]]", resolve_fabric("quale"), _options())

    @pytest.mark.parametrize(
        "placer_options",
        [
            {"placer": "monte-carlo", "num_placements": 3},
            {"placer": "mvfb", "num_seeds": 2},
        ],
        ids=["monte-carlo", "mvfb"],
    )
    def test_placement_searches(self, fabric, placer_options):
        # The searches simulate many placements and keep the best; every
        # one of those simulations must agree for the winners to agree.
        _map_both("[[7,1,3]]", fabric, _options(**placer_options))


class TestFastPathsMatchTheirDefinitions:
    """The router's and simulator's shortcuts against the oracle's definitions.

    Call by call, so a difference that no mapping would show still fails.
    """

    @pytest.mark.parametrize("turn_aware", [True, False])
    @pytest.mark.parametrize("capacity", [1, 2])
    def test_attachment_costs_for_every_trap_and_occupancy(self, turn_aware, capacity):
        fabric = resolve_fabric("quale")
        router = Router(fabric, policy=RoutingPolicy(turn_aware=turn_aware))
        congestion = CongestionTracker(fabric, capacity)
        # Every channel empty, then one more qubit in each, up to full.
        for level in range(capacity + 1):
            if level:
                for channel in fabric.channels:
                    congestion.reserve(channel)
            for trap in fabric.traps.values():
                fast = router._attachment_costs(trap, congestion)
                reference = reference_attachment_costs(router, trap, congestion)
                # Same costs, keyed in the same order: the kernel reads the
                # sources and targets in order.
                assert list(fast.items()) == list(reference.items()), (trap, level)

    @pytest.mark.parametrize(
        "circuit, technology",
        [("[[23,1,7]]", "paper"), (CONGESTED.format(seed=7), "cap-1")],
        ids=["23117", "congested-cap1"],
    )
    def test_occupied_traps_at_every_plan(self, fabric, monkeypatch, circuit, technology):
        fast = engine._RunState._occupied_traps_for
        calls = []

        def checked(state, instruction):
            occupied = fast(state, instruction)
            assert occupied == reference_occupied_traps(state, instruction)
            calls.append(instruction.index)
            return occupied

        monkeypatch.setattr(engine._RunState, "_occupied_traps_for", checked)
        _map(circuit, fabric, _options(technology))
        assert calls


#: Module-level fabric for the hypothesis property: hypothesis reuses the
#: function across examples, so pytest function fixtures are off limits.
_PROP_FABRIC = build_fabric(
    FabricSpec(name="prop", junction_rows=4, junction_cols=4, channel_length=3)
)
_PROP_CHANNELS = sorted(_PROP_FABRIC.channels)
_PROP_TRAPS = sorted(_PROP_FABRIC.traps)


class TestRouteCacheProperty:
    """Cache soundness under arbitrary congestion churn.

    The cached router runs the full stack (snapshot-validated MRU entries
    over expanded-node read sets, target-distance pruning and its descent
    bound); the oracle router plans every query from scratch.  If a
    snapshot ever validated a plan whose read channels changed, the served
    plan would diverge from the fresh one on some interleaving — hypothesis
    searches for exactly that, and a seeded churn repeats it under
    fractional delays.
    """

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_served_plans_equal_fresh_computation(self, data):
        cached = Router(_PROP_FABRIC)
        reference = OracleRouter(_PROP_FABRIC, cached.technology, cached.policy)
        congestion = CongestionTracker(_PROP_FABRIC, channel_capacity=2)
        reserved: list = []
        for _ in range(data.draw(st.integers(8, 30), label="ops")):
            op = data.draw(
                st.sampled_from(("reserve", "release", "query", "query")), label="op"
            )
            if op == "reserve":
                channel = data.draw(st.sampled_from(_PROP_CHANNELS), label="ch")
                if not congestion.is_full(channel):
                    congestion.reserve(channel)
                    reserved.append(channel)
            elif op == "release":
                if reserved:
                    index = data.draw(
                        st.integers(0, len(reserved) - 1), label="idx"
                    )
                    congestion.release(reserved.pop(index))
            else:
                source = data.draw(st.sampled_from(_PROP_TRAPS), label="src")
                target = data.draw(st.sampled_from(_PROP_TRAPS), label="tgt")
                served = cached.plan_qubit_route("q", source, target, congestion)
                fresh = reference.plan_qubit_route("q", source, target, congestion)
                assert served == fresh, (
                    f"cached plan diverged for {source}->{target} under "
                    f"occupancies {congestion.snapshot()}"
                )

    def test_fractional_technology_under_seeded_churn(self):
        # Every leg query under random reservations and releases, with the
        # fractional PMD, must equal a fresh reference computation.
        technology = resolve_technology(FRACTIONAL_PMD)
        cached = Router(_PROP_FABRIC, technology)
        reference = OracleRouter(_PROP_FABRIC, technology, cached.policy)
        congestion = CongestionTracker(_PROP_FABRIC, channel_capacity=2)
        rng = random.Random(26)
        reserved: list = []
        queries = 0
        for _ in range(1200):
            op = rng.choice(("reserve", "release", "query", "query"))
            if op == "reserve":
                channel = rng.choice(_PROP_CHANNELS)
                if not congestion.is_full(channel):
                    congestion.reserve(channel)
                    reserved.append(channel)
            elif op == "release":
                if reserved:
                    congestion.release(reserved.pop(rng.randrange(len(reserved))))
            else:
                source, target = rng.choice(_PROP_TRAPS), rng.choice(_PROP_TRAPS)
                served = cached.plan_qubit_route("q", source, target, congestion)
                fresh = reference.plan_qubit_route("q", source, target, congestion)
                assert served == fresh, f"query {queries}: {source}->{target}"
                queries += 1
        assert cached.stats.cache_hits > 0 and cached.stats.dijkstra_calls > 0
