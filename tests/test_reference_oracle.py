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
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from reference_oracle import (
    OracleRouter,
    assert_same_mapping,
    channel_exit_times,
    oracle_mode,
    reference_attachment_costs,
    reference_meeting_candidates,
    reference_occupied_traps,
)
from repro.circuits.circuit import QuantumCircuit
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
from repro.sim.events import ChannelReleased, EventQueue, InstructionCompleted

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


def _options(technology="paper", scheduler="qspr", channel_capacity=None, **changes):
    pmd = resolve_technology(technology)
    if channel_capacity is not None:
        pmd = replace(pmd, channel_capacity=channel_capacity)
    return MapperOptions(technology=pmd, scheduler=scheduler, **{"placer": "center", **changes})


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
        # The turn-blind graph has zero-cost turn edges, which the kernel's
        # bounds and the route table must handle as the oracle does.
        options = _options(turn_aware_routing=False, channel_capacity=capacity)
        _map_both(LAYERED, fabric, options)

    @pytest.mark.parametrize("trap_candidates", [1, 2, 8])
    def test_candidate_counts(self, fabric, trap_candidates):
        # One candidate fails the instruction at its first failed leg; more
        # candidates fall back, nearest first, leg by leg.
        options = _options("cap-1", trap_candidates=trap_candidates)
        _map_both(CONGESTED.format(seed=6), fabric, options)

    @pytest.mark.parametrize("technology", ["cap-1", "slow-turn", "slow-2q"])
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
        technology = resolve_technology({"channel_capacity": capacity})
        router = Router(fabric, technology, RoutingPolicy(turn_aware=turn_aware))
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
        "circuit, options, selectors",
        [
            ("[[23,1,7]]", _options(), {engine._PolicyOrderSelector}),
            (CONGESTED.format(seed=7), _options("cap-1"), {engine._PolicyOrderSelector}),
            ("[[9,1,3]]", quale_options(), {engine._BarrierLevelSelector}),
            (
                "[[7,1,3]]",
                _options(placer="mvfb", num_seeds=2),
                {engine._PolicyOrderSelector, engine._ForcedOrderSelector},
            ),
        ],
        ids=["23117", "congested-cap1", "quale-barrier", "mvfb-forced-order"],
    )
    def test_occupied_traps_at_every_plan(
        self, fabric, monkeypatch, circuit, options, selectors
    ):
        # The run keeps one occupied-trap set and hands the router the set
        # itself, less the exempt operand traps for the plan's duration.  At
        # every plan, policy-ordered, barrier (QUALE) and forced-order (MVFB
        # backward) alike, the set is reserved ∪ resting before the plan and
        # the full scan's answer during it, and after every event it is
        # reserved ∪ resting again.
        fast = engine._RunState._occupied_traps_for
        process_event = engine._RunState.process_event
        seen, events = set(), []

        def kept(state):
            return state.reserved_traps | set(state.resting)

        def checked(state, instruction):
            assert state.occupied_traps == kept(state)
            occupied = fast(state, instruction)
            assert occupied is state.occupied_traps
            assert occupied == reference_occupied_traps(state, instruction)
            seen.add(type(state.selector))
            return occupied

        def checked_event(state, now, event):
            woke = process_event(state, now, event)
            assert state.occupied_traps == kept(state)
            events.append(type(event))
            return woke

        monkeypatch.setattr(engine._RunState, "_occupied_traps_for", checked)
        monkeypatch.setattr(engine._RunState, "process_event", checked_event)
        _map(circuit, fabric, options)
        assert seen == selectors
        assert set(events) == {InstructionCompleted, ChannelReleased}

    @pytest.mark.parametrize("capacity", [1, 2], ids=["cap1-serial", "cap2-parallel"])
    def test_channel_releases_at_the_defined_exit_times(self, fabric, monkeypatch, capacity):
        # Under fractional delays step sums round, so the issue path must add
        # the step durations left to right from each leg's start exactly as
        # the definition does: every pushed release, by repr.  The record's
        # totals are the route's, as InstructionRoute defines them.
        pushed: list[tuple] = []
        issue = engine._RunState._issue
        push = EventQueue.push
        routes = {"serial": 0, "parallel": 0}

        def recording_push(queue, time, event):
            if isinstance(event, ChannelReleased):
                pushed.append((event.qubit, event.channel_id, repr(time)))
            push(queue, time, event)

        def checked_issue(state, instruction, route, now):
            pushed.clear()
            issue(state, instruction, route, now)
            record = state.records[instruction.index]
            assert (repr(record.routing_delay), record.moves, record.turns) == (
                repr(route.routing_delay), route.total_moves, route.total_turns
            )
            exits = [
                (plan.qubit, channel_id, exit_time)
                for plan, offset in zip(route.plans, route.plan_start_offsets())
                for channel_id, exit_time in channel_exit_times(plan, now + offset)
            ]
            if route.serial:
                # A channel both legs use is released once, when the later
                # leg leaves it.
                last: dict = {}
                for qubit, channel_id, exit_time in exits:
                    if channel_id not in last or exit_time > last[channel_id][2]:
                        last[channel_id] = (qubit, channel_id, exit_time)
                exits = list(last.values())
            assert pushed == [(qubit, channel, repr(time)) for qubit, channel, time in exits]
            if sum(bool(plan.steps) for plan in route.plans) == 2:
                routes["serial" if route.serial else "parallel"] += 1

        monkeypatch.setattr(EventQueue, "push", recording_push)
        monkeypatch.setattr(engine._RunState, "_issue", checked_issue)
        options = _options(FRACTIONAL_PMD, channel_capacity=capacity)
        _map(CONGESTED.format(seed=3), fabric, options)
        assert routes["serial" if capacity == 1 else "parallel"] > 0

    @pytest.mark.parametrize("meeting_point", list(MeetingPoint), ids=lambda point: point.value)
    @pytest.mark.parametrize("capacity", [1, 2], ids=["cap1", "cap2"])
    @pytest.mark.parametrize(
        "circuit, placer_options",
        [("[[7,1,3]]", {"placer": "mvfb", "num_seeds": 2}), (CONGESTED.format(seed=7), {})],
        ids=["mvfb", "center"],
    )
    def test_meeting_traps_are_tried_in_reference_order(
        self, fabric, monkeypatch, circuit, placer_options, capacity, meeting_point
    ):
        # At every plan the router tries meeting traps one at a time, in
        # exactly the order of the independent reference ranking, and stops
        # at the first that routes.  A plan that tries none failed on a full
        # operand channel.
        occupied_traps_for = engine._RunState._occupied_traps_for
        plan_instruction = Router.plan_instruction
        plan_to_candidate = Router._plan_to_candidate
        reference_occupied: list[set] = []
        tried: list[int] = []
        plans = {"two-qubit": 0, "operand channel full": 0}

        def recording_occupied(state, instruction):
            reference_occupied.append(reference_occupied_traps(state, instruction))
            return occupied_traps_for(state, instruction)

        def recording_candidate(router, instruction, *legs):
            tried.append(legs[4].id)
            return plan_to_candidate(router, instruction, *legs)

        def checked_plan(router, instruction, positions, congestion, **kwargs):
            tried.clear()
            route = plan_instruction(router, instruction, positions, congestion, **kwargs)
            occupied = reference_occupied.pop()
            if not instruction.is_two_qubit:
                assert tried == []
                return route
            plans["two-qubit"] += 1
            source, dest = (positions[name] for name in instruction.qubit_names)
            channels = {router.fabric.trap(trap).channel_id for trap in (source, dest)}
            if source != dest and any(map(congestion.is_full, channels)):
                assert (tried, route) == ([], None)
                plans["operand channel full"] += 1
                return route
            expected = reference_meeting_candidates(
                router.fabric, router.policy, source, dest, occupied
            )
            if route is None:
                assert tried == expected
            else:
                assert tried == expected[: len(tried)]
                assert route.target_trap == tried[-1]
            return route

        monkeypatch.setattr(engine._RunState, "_occupied_traps_for", recording_occupied)
        monkeypatch.setattr(Router, "plan_instruction", checked_plan)
        monkeypatch.setattr(Router, "_plan_to_candidate", recording_candidate)
        options = _options(
            meeting_point=meeting_point, channel_capacity=capacity, **placer_options
        )
        _map(circuit, fabric, options)
        assert plans["two-qubit"] > 0
        assert not reference_occupied
        if capacity == 1:
            assert plans["operand channel full"] > 0

    @pytest.mark.parametrize("meeting_point", list(MeetingPoint), ids=lambda point: point.value)
    @pytest.mark.parametrize("capacity", [1, 2], ids=["cap1", "cap2"])
    def test_meeting_trap_order_under_random_congestion(
        self, fabric, monkeypatch, capacity, meeting_point
    ):
        # Seeded random congestion, occupied traps and operand traps, with
        # the candidate count varied: here most candidates fail, so the
        # whole order, fallbacks included, is checked plan by plan.
        tried: list[int] = []
        plan_to_candidate = Router._plan_to_candidate

        def recording_candidate(router, instruction, *legs):
            tried.append(legs[4].id)
            return plan_to_candidate(router, instruction, *legs)

        monkeypatch.setattr(Router, "_plan_to_candidate", recording_candidate)
        circuit = QuantumCircuit()
        source_qubit, dest_qubit = circuit.add_qubits(2)
        instruction = circuit.cx(source_qubit, dest_qubit)
        rng = random.Random(2012)
        traps, channels = sorted(fabric.traps), sorted(fabric.channels)
        technology = resolve_technology({"channel_capacity": capacity})
        seen = {
            "failed after trying several": 0,
            "routed by a later candidate": 0,
            "operand-trap fallback": 0,
        }
        for trial in range(300):
            policy = RoutingPolicy(
                meeting_point=meeting_point, trap_candidates=(1, 2, 4)[trial % 3]
            )
            router = Router(fabric, technology, policy)
            congestion = CongestionTracker(fabric, capacity)
            density = (0.1, 0.3, 0.6)[trial % 5 % 3]
            for channel in channels:
                if rng.random() < density:
                    congestion.reserve_all([channel] * rng.randint(1, capacity))
            source, dest = rng.choice(traps), rng.choice(traps)
            occupied = set(rng.sample(traps, rng.randint(0, len(traps) // 2))) | {source, dest}
            # An operand trap where only operands rest is free to meet in.
            occupied -= {trap for trap in dict.fromkeys((source, dest)) if rng.random() < 0.5}
            positions = {source_qubit.name: source, dest_qubit.name: dest}
            tried.clear()
            route = router.plan_instruction(
                instruction, positions, congestion, occupied_traps=occupied
            )
            operand_channels = {fabric.trap(trap).channel_id for trap in (source, dest)}
            if source != dest and any(map(congestion.is_full, operand_channels)):
                assert (tried, route) == ([], None)
                continue
            expected = reference_meeting_candidates(fabric, policy, source, dest, occupied)
            if route is None:
                assert tried == expected
                seen["failed after trying several"] += len(tried) > 1
            else:
                assert tried == expected[: len(tried)]
                assert route.target_trap == tried[-1]
                seen["routed by a later candidate"] += len(tried) > 1
            # More than the ranked count: an operand's own trap was tried.
            seen["operand-trap fallback"] += len(tried) > policy.trap_candidates
        if meeting_point is MeetingPoint.DESTINATION:
            del seen["operand-trap fallback"]  # the rule has no fallbacks
        assert all(seen.values()), seen


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
