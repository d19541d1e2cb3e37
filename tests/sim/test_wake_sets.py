"""Busy-queue wake-sets: unit behaviour and engine-level equivalence.

The wake-set retry policy must never change *what* the simulator computes —
latencies, schedules, placements, movement and congestion equal the
reference oracle's, which polls at every event timestamp and retries every
parked instruction; only the number of futile router calls drops.  Every
run is gated alike: policy-ordered, barrier (QUALE) and forced-order (MVFB
backward) runs.  Each retry the issue loop skips is also planned by the
oracle's router on the spot, and must fail.
"""

from __future__ import annotations

import pytest

from reference_oracle import (
    OracleRouter,
    assert_same_mapping,
    oracle_mode,
    reference_occupied_traps,
)
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.qecc import qecc_encoder
from repro.errors import SchedulingError
from repro.fabric.builder import small_fabric
from repro.mapper.quale import quale_options
from repro.routing.congestion import CongestionTracker
from repro.routing.router import ANY_CONGESTION_CHANGE, channel_key
from repro.runner.executor import map_spec
from repro.runner.spec import ExperimentSpec
from repro.scheduling.busy_queue import BusyQueue
from repro.sim import engine
from repro.sim.engine import FabricSimulator
from repro.sim.events import ChannelReleased
from repro.technology import TechnologyParams
from repro.placement.center import CenterPlacer


class TestBusyQueueWakeSets:
    def test_block_on_requires_parked(self):
        queue = BusyQueue()
        with pytest.raises(SchedulingError):
            queue.block_on(3, [7])

    def test_blocked_instruction_needs_no_retry_until_woken(self):
        queue = BusyQueue()
        queue.park(3)
        assert queue.needs_retry(3)  # no blockers recorded yet
        queue.block_on(3, [7, 9])
        assert not queue.needs_retry(3)
        assert queue.wake(7) == [3]
        assert queue.needs_retry(3)

    def test_wake_only_touches_matching_instructions(self):
        queue = BusyQueue()
        queue.park(1)
        queue.park(2)
        queue.block_on(1, [7])
        queue.block_on(2, [8])
        assert queue.wake(7) == [1]
        assert queue.needs_retry(1)
        assert not queue.needs_retry(2)

    def test_wake_on_unknown_resource_is_a_noop(self):
        queue = BusyQueue()
        queue.park(1)
        queue.block_on(1, [7])
        assert queue.wake(42) == []
        assert not queue.needs_retry(1)

    def test_reblocking_replaces_the_wake_set(self):
        queue = BusyQueue()
        queue.park(1)
        queue.block_on(1, [7])
        queue.block_on(1, [8])  # re-blocked on a different channel
        assert queue.wake(7) == []  # the stale reverse entry must not wake it
        assert not queue.needs_retry(1)
        assert queue.wake(8) == [1]

    def test_remove_clears_blockers(self):
        queue = BusyQueue()
        queue.park(1)
        queue.block_on(1, [7])
        queue.remove(1)
        assert queue.wake(7) == []

    def test_a_reparked_instruction_carries_no_stale_blockers(self):
        queue = BusyQueue()
        queue.park(1)
        queue.block_on(1, [7])
        queue.remove(1)
        queue.park(1)
        assert queue.needs_retry(1)
        assert queue.wake(7) == []

    def test_wake_reports_every_instruction_asleep_on_the_resource(self):
        queue = BusyQueue()
        for index in (1, 2, 3):
            queue.park(index)
        queue.block_on(1, [7])
        queue.block_on(2, [7, 9])
        queue.block_on(3, [8])
        assert sorted(queue.wake(7)) == [1, 2]
        assert queue.needs_retry(1) and queue.needs_retry(2)
        assert not queue.needs_retry(3)

    def test_one_wake_clears_the_whole_blocker_set(self):
        queue = BusyQueue()
        queue.park(1)
        queue.block_on(1, [7, 9])
        assert queue.wake(7) == [1]
        # The reverse entry under 9 is stale now; waking it reports nothing.
        assert queue.wake(9) == []
        assert queue.needs_retry(1)

    def test_sentinel_is_an_ordinary_key(self):
        queue = BusyQueue()
        queue.park(1)
        queue.park(2)
        queue.block_on(1, [ANY_CONGESTION_CHANGE])
        queue.block_on(2, [channel_key(("h", 0, 0))])
        assert queue.wake(ANY_CONGESTION_CHANGE) == [1]
        assert not queue.needs_retry(2)

    def test_repark_is_counted_once(self):
        queue = BusyQueue()
        queue.park(1)
        queue.park(1)
        assert (len(queue), queue.total_entries) == (1, 1)
        queue.remove(1)
        queue.park(1)
        assert queue.total_entries == 2


def _run(circuit_name: str):
    circuit = qecc_encoder(circuit_name)
    fabric = small_fabric(junction_rows=6, junction_cols=6)
    placement = CenterPlacer(fabric).place(circuit)
    return FabricSimulator(circuit, fabric).run(placement)


class TestEngineEquivalence:
    @pytest.mark.parametrize("circuit", ["[[9,1,3]]", "[[23,1,7]]"])
    def test_results_match_oracle_with_fewer_issue_polls(self, circuit):
        lazy = _run(circuit)
        with oracle_mode():
            eager = _run(circuit)

        assert_same_mapping(lazy, eager)
        assert lazy.busy_queue_entries == eager.busy_queue_entries
        for index, record in eager.records.items():
            other = lazy.records[index]
            assert (other.issue_time, other.finish_time, other.target_trap) == (
                record.issue_time, record.finish_time, record.target_trap
            )

        # The congested runs park instructions; the gated loop must skip at
        # least some wake-less timestamps there (that is its whole point).
        assert eager.busy_queue_entries > 0
        assert lazy.event_stats.skipped_polls > 0
        assert lazy.event_stats.issue_polls < eager.event_stats.issue_polls
        # The oracle never gates, so it never skips a poll.
        assert eager.event_stats.skipped_polls == 0

    def test_forced_order_runs_skip_polls_and_match_the_oracle(self):
        circuit = qecc_encoder("[[23,1,7]]")
        fabric = small_fabric(junction_rows=6, junction_cols=6)
        placement = CenterPlacer(fabric).place(circuit)
        order = FabricSimulator(circuit, fabric).run(placement).schedule

        def forced_run():
            return FabricSimulator(circuit, fabric, forced_order=order).run(placement)

        outcome = forced_run()
        with oracle_mode():
            oracle = forced_run()
        assert outcome.schedule == order
        assert outcome.event_stats.skipped_polls > 0
        assert_same_mapping(outcome, oracle)

    def test_barrier_runs_skip_polls(self):
        # QUALE's level-by-level issue on capacity-1 channels parks
        # instructions, and its polls are gated like every other run's.
        circuit = qecc_encoder("[[9,1,3]]")
        fabric = small_fabric(junction_rows=6, junction_cols=6)
        options = quale_options()
        placement = CenterPlacer(fabric).place(circuit)
        outcome = FabricSimulator(
            circuit,
            fabric,
            options.technology,
            routing_policy=options.routing_policy(),
            scheduler=options.scheduler,
            barrier_scheduling=True,
        ).run(placement)
        assert outcome.busy_queue_entries > 0
        assert outcome.event_stats.skipped_polls > 0


class TestEngineWakes:
    """Which parked instructions an issue and a release wake in a gated run."""

    def _state_before_issue(self, capacity):
        """A run about to issue instruction 0 at time 0, with instruction 1
        parked, and the route it issues."""
        circuit = QuantumCircuit()
        a, b, c, d = circuit.add_qubits(4)
        circuit.cx(a, b)
        circuit.cx(c, d)
        fabric = small_fabric()
        sim = FabricSimulator(circuit, fabric, TechnologyParams(channel_capacity=capacity))
        state = engine._RunState(sim, CenterPlacer(fabric).place(circuit))
        state.busy.park(1)
        instruction = sim.qidg.instruction(0)
        route = sim.router.plan_instruction(
            instruction,
            state.positions,
            state.congestion,
            occupied_traps=state._occupied_traps_for(instruction),
        )
        return state, instruction, route

    def test_an_issue_wakes_the_sentinel_and_no_channel(self):
        # An issue books channels, so it opens none.
        state, instruction, route = self._state_before_issue(2)
        state.busy.block_on(1, [channel_key(route.channels[0])])
        state._issue(instruction, route, 0.0)
        assert not state.busy.needs_retry(1)
        state, instruction, route = self._state_before_issue(2)
        state.busy.block_on(1, [ANY_CONGESTION_CHANGE])
        state._issue(instruction, route, 0.0)
        assert state.busy.needs_retry(1)
        assert state.stats.wake_hits == 1

    @pytest.mark.parametrize("key", ["channel", "sentinel"])
    def test_a_release_that_opens_capacity_wakes_its_channel_and_the_sentinel(self, key):
        state, instruction, route = self._state_before_issue(1)
        state._issue(instruction, route, 0.0)
        channel = route.channels[0]
        assert state.congestion.is_full(channel)
        blocker = channel_key(channel) if key == "channel" else ANY_CONGESTION_CHANGE
        state.busy.block_on(1, [blocker])
        assert state.process_event(1.0, ChannelReleased("q0", channel))
        assert state.busy.needs_retry(1)

    def test_a_release_that_opens_no_capacity_wakes_only_the_sentinel(self):
        state, instruction, route = self._state_before_issue(2)
        state._issue(instruction, route, 0.0)
        channel = next(
            channel for channel in route.channels if state.congestion.occupancy(channel) == 1
        )
        state.busy.block_on(1, [channel_key(channel)])
        assert not state.process_event(1.0, ChannelReleased("q0", channel))
        assert not state.busy.needs_retry(1)
        state.congestion.reserve(channel)
        state.busy.block_on(1, [ANY_CONGESTION_CHANGE])
        assert state.process_event(2.0, ChannelReleased("q0", channel))
        assert state.busy.needs_retry(1)


def _copy_of(congestion: CongestionTracker) -> CongestionTracker:
    """A separate tracker with the same occupancies."""
    twin = CongestionTracker(congestion.fabric, congestion.channel_capacity)
    for channel_id, level in congestion.snapshot().items():
        for _ in range(level):
            twin.reserve(channel_id)
    return twin


def _run_kind(sim: FabricSimulator) -> str:
    """Which selector orders ``sim``'s candidates."""
    if sim.forced_order is not None:
        return "forced"
    return "barrier" if sim.barrier_scheduling else "policy"


class TestSkippedRetries:
    """Every retry the gated issue loop skips would have failed.

    Each run's :meth:`BusyQueue.needs_retry` is wrapped: whenever it answers
    ``False``, the oracle's router plans the instruction under the run's
    current positions, congestion and occupied traps, trying every candidate
    meeting trap, and the plan must fail.  Each job must skip retries in the
    kinds of run it names: barrier runs for QUALE, MVFB backward passes
    (forced order) for the MVFB search.
    """

    @pytest.mark.parametrize(
        ("spec", "kinds"),
        [
            (
                ExperimentSpec("qecc-scaled:dist=9", placer="center", technology="cap-1"),
                {"policy"},
            ),
            (
                ExperimentSpec(
                    "random-layered:q=48:d=16:fill=1.0:locality=3:seed=781082",
                    placer="center",
                    technology="cap-1",
                ),
                {"policy"},
            ),
            (ExperimentSpec("[[19,1,7]]", mapper="qpos"), {"policy"}),
            (ExperimentSpec("[[19,1,7]]", mapper="quale"), {"barrier"}),
            (
                ExperimentSpec("[[9,1,3]]", placer="mvfb", num_seeds=3),
                {"policy", "forced"},
            ),
        ],
        ids=[
            "qecc-dist9-cap1", "layered-q48-cap1", "qpos-19-1-7", "quale-19-1-7",
            "mvfb-9-1-3",
        ],
    )
    def test_every_skipped_retry_fails_under_the_oracle(self, monkeypatch, spec, kinds):
        skipped: list[tuple[str, int]] = []
        original_init = engine._RunState.__init__

        def checking_init(state, sim, initial_placement):
            original_init(state, sim, initial_placement)
            oracle = OracleRouter(sim.fabric, sim.technology, sim.routing_policy)
            needs_retry = state.busy.needs_retry

            def checked_needs_retry(index):
                retry = needs_retry(index)
                if not retry:
                    instruction = sim.qidg.instruction(index)
                    route = oracle.plan_instruction(
                        instruction,
                        state.positions,
                        _copy_of(state.congestion),
                        occupied_traps=reference_occupied_traps(state, instruction),
                    )
                    assert route is None, f"instruction {index} was routable"
                    skipped.append((_run_kind(sim), index))
                return retry

            state.busy.needs_retry = checked_needs_retry

        monkeypatch.setattr(engine._RunState, "__init__", checking_init)
        map_spec(spec)
        assert {kind for kind, _ in skipped} == kinds
