"""Tests for scheduling-policy priorities, dependency tracking and the busy queue."""

import pytest

from repro.errors import SchedulingError
from repro.qidg.graph import build_qidg
from repro.scheduling.busy_queue import BusyQueue
from repro.scheduling.policies import (
    PAPER_POLICIES,
    QposDependentsPolicy,
    QposPathDelayPolicy,
    QsprPolicy,
    QualeAlapPolicy,
)
from repro.scheduling.ready import DependencyTracker
from repro.technology import PAPER_TECHNOLOGY


class TestPriorities:
    def test_qspr_priority_combines_dependents_and_path(self, bell_circuit):
        qidg = build_qidg(bell_circuit)
        priorities = QsprPolicy().priorities(qidg, PAPER_TECHNOLOGY)
        # H: 1 dependent + 110 path; CX: 0 dependents + 100 path.
        assert priorities[0] == pytest.approx(111.0)
        assert priorities[1] == pytest.approx(100.0)

    def test_quale_alap_prefers_low_levels(self, ghz5):
        qidg = build_qidg(ghz5)
        priorities = QualeAlapPolicy().priorities(qidg, PAPER_TECHNOLOGY)
        ordered = sorted(priorities, key=lambda n: -priorities[n])
        assert ordered[0] == 0  # the Hadamard must come first

    def test_qpos_dependents(self, ghz5):
        qidg = build_qidg(ghz5)
        priorities = QposDependentsPolicy().priorities(qidg, PAPER_TECHNOLOGY)
        assert priorities[0] == pytest.approx(len(ghz5.instructions) - 1)

    def test_qpos_path_delay_excludes_own_delay(self, bell_circuit):
        qidg = build_qidg(bell_circuit)
        priorities = QposPathDelayPolicy().priorities(qidg, PAPER_TECHNOLOGY)
        assert priorities[0] == pytest.approx(100.0)
        assert priorities[1] == pytest.approx(0.0)

    def test_all_policies_produce_all_nodes(self, paper_circuit):
        qidg = build_qidg(paper_circuit)
        for policy in PAPER_POLICIES:
            priorities = policy.priorities(qidg, PAPER_TECHNOLOGY)
            assert set(priorities) == set(range(len(qidg)))


class TestDependencyTracker:
    def test_initially_ready_sources(self, paper_circuit):
        qidg = build_qidg(paper_circuit)
        tracker = DependencyTracker(qidg)
        assert tracker.initially_ready() == qidg.sources()

    def test_completion_unlocks_successors(self, bell_circuit):
        qidg = build_qidg(bell_circuit)
        tracker = DependencyTracker(qidg)
        tracker.mark_issued(0)
        newly = tracker.mark_completed(0)
        assert newly == [1]
        tracker.mark_issued(1)  # raises unless 1 is ready

    def test_cannot_issue_before_dependencies(self, bell_circuit):
        qidg = build_qidg(bell_circuit)
        tracker = DependencyTracker(qidg)
        with pytest.raises(SchedulingError):
            tracker.mark_issued(1)

    def test_unknown_instruction_rejected(self, bell_circuit):
        tracker = DependencyTracker(build_qidg(bell_circuit))
        for index in (-1, 2):
            with pytest.raises(SchedulingError, match="not part of the QIDG"):
                tracker.mark_issued(index)

    def test_double_issue_rejected(self, bell_circuit):
        tracker = DependencyTracker(build_qidg(bell_circuit))
        tracker.mark_issued(0)
        with pytest.raises(SchedulingError):
            tracker.mark_issued(0)

    def test_complete_without_issue_rejected(self, bell_circuit):
        tracker = DependencyTracker(build_qidg(bell_circuit))
        with pytest.raises(SchedulingError):
            tracker.mark_completed(0)

    def test_all_completed(self, ghz5):
        qidg = build_qidg(ghz5)
        tracker = DependencyTracker(qidg)
        for node in qidg.topological_order():
            tracker.mark_issued(node)
            tracker.mark_completed(node)
        assert tracker.all_completed
        assert tracker.outstanding == []

    def test_outstanding(self, bell_circuit):
        tracker = DependencyTracker(build_qidg(bell_circuit))
        assert tracker.outstanding == [0, 1]
        tracker.mark_issued(0)
        tracker.mark_completed(0)
        assert tracker.outstanding == [1]


class TestBusyQueue:
    def test_park_and_remove(self):
        queue = BusyQueue()
        queue.park(3)
        assert 3 in queue
        queue.remove(3)
        assert 3 not in queue

    def test_park_is_idempotent(self):
        queue = BusyQueue()
        queue.park(3)
        queue.park(3)
        assert len(queue) == 1

    def test_total_entries_counts_distinct_parks(self):
        queue = BusyQueue()
        queue.park(1)
        queue.remove(1)
        queue.park(1)
        assert queue.total_entries == 2

    def test_remove_missing(self):
        queue = BusyQueue()
        with pytest.raises(SchedulingError):
            queue.remove(7)

    def test_remove_twice_raises(self):
        queue = BusyQueue()
        queue.park(3)
        queue.remove(3)
        with pytest.raises(SchedulingError):
            queue.remove(3)

    def test_len_counts_parked_instructions(self):
        queue = BusyQueue()
        for index in (4, 2, 9):
            queue.park(index)
        queue.remove(2)
        assert (len(queue), queue.total_entries) == (2, 3)
        assert 4 in queue and 9 in queue and 2 not in queue

    def test_truthiness(self):
        queue = BusyQueue()
        assert not queue
        queue.park(5)
        assert queue
