"""Busy-queue wake-sets: unit behaviour and engine-level equivalence.

The wake-set retry policy must never change *what* the simulator computes —
latencies, schedules, placements, movement and congestion equal the
reference oracle's, which polls at every event timestamp and retries every
parked instruction; only the number of futile router calls drops.
"""

from __future__ import annotations

import pytest

from reference_oracle import assert_same_mapping, oracle_mode
from repro.circuits.qecc import qecc_encoder
from repro.errors import SchedulingError
from repro.fabric.builder import small_fabric
from repro.mapper.quale import quale_options
from repro.routing.router import ANY_CONGESTION_CHANGE, channel_key
from repro.scheduling.busy_queue import BusyQueue
from repro.sim.engine import FabricSimulator
from repro.placement.center import CenterPlacer


class TestBusyQueueWakeSets:
    def test_block_on_requires_parked(self):
        queue = BusyQueue()
        with pytest.raises(SchedulingError):
            queue.block_on(3, [7])

    def test_blocked_instruction_needs_no_retry_until_woken(self):
        queue = BusyQueue()
        queue.park(3, 1.0)
        assert queue.needs_retry(3)  # no blockers recorded yet
        queue.block_on(3, [7, 9])
        assert not queue.needs_retry(3)
        assert queue.wake(7) == [3]
        assert queue.needs_retry(3)

    def test_wake_only_touches_matching_instructions(self):
        queue = BusyQueue()
        queue.park(1, 0.0)
        queue.park(2, 0.0)
        queue.block_on(1, [7])
        queue.block_on(2, [8])
        assert queue.wake(7) == [1]
        assert queue.needs_retry(1)
        assert not queue.needs_retry(2)

    def test_wake_on_unknown_resource_is_a_noop(self):
        queue = BusyQueue()
        queue.park(1, 0.0)
        queue.block_on(1, [7])
        assert queue.wake(42) == []
        assert not queue.needs_retry(1)

    def test_reblocking_replaces_the_wake_set(self):
        queue = BusyQueue()
        queue.park(1, 0.0)
        queue.block_on(1, [7])
        queue.block_on(1, [8])  # re-blocked on a different channel
        assert queue.wake(7) == []  # the stale reverse entry must not wake it
        assert not queue.needs_retry(1)
        assert queue.wake(8) == [1]

    def test_remove_clears_blockers(self):
        queue = BusyQueue()
        queue.park(1, 0.0)
        queue.block_on(1, [7])
        queue.remove(1)
        assert queue.wake(7) == []

    def test_one_wake_clears_the_whole_blocker_set(self):
        queue = BusyQueue()
        queue.park(1, 0.0)
        queue.block_on(1, [7, 9])
        assert queue.wake(7) == [1]
        # The reverse entry under 9 is stale now; waking it reports nothing.
        assert queue.wake(9) == []
        assert queue.needs_retry(1)

    def test_sentinel_is_an_ordinary_key(self):
        queue = BusyQueue()
        queue.park(1, 0.0)
        queue.park(2, 0.0)
        queue.block_on(1, [ANY_CONGESTION_CHANGE])
        queue.block_on(2, [channel_key(("h", 0, 0))])
        assert queue.wake(ANY_CONGESTION_CHANGE) == [1]
        assert not queue.needs_retry(2)

    def test_repark_keeps_the_first_park_time(self):
        queue = BusyQueue()
        queue.park(1, 2.0)
        queue.park(1, 5.0)
        assert queue.parked_since(1) == 2.0
        assert (len(queue), queue.total_entries) == (1, 1)
        assert queue.remove(1) == 2.0
        queue.park(1, 7.0)
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

    def test_wake_sets_disabled_for_forced_order(self):
        circuit = qecc_encoder("[[5,1,3]]")
        fabric = small_fabric(junction_rows=6, junction_cols=6)
        placement = CenterPlacer(fabric).place(circuit)
        order = FabricSimulator(circuit, fabric).run(placement).schedule
        forced = FabricSimulator(circuit, fabric, forced_order=order)
        outcome = forced.run(placement)
        assert outcome.schedule == order
        assert outcome.event_stats.skipped_polls == 0

    def test_wake_sets_disabled_for_barrier_levels(self):
        # QUALE's level-by-level issue on capacity-1 channels parks
        # instructions, but only priority-order issue gates its polls.
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
        assert outcome.event_stats.skipped_polls == 0
