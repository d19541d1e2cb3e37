"""Tests for the congestion tracker."""

import pytest

from repro.errors import FabricError, RoutingError
from repro.routing.congestion import CongestionTracker


@pytest.fixture
def tracker(small_fabric_4x4):
    return CongestionTracker(small_fabric_4x4, channel_capacity=2)


class TestReserveRelease:
    def test_initially_empty(self, tracker):
        assert tracker.occupancy(("h", 0, 0)) == 0
        assert not tracker.is_full(("h", 0, 0))

    def test_reserve_increments(self, tracker):
        tracker.reserve(("h", 0, 0))
        assert tracker.occupancy(("h", 0, 0)) == 1

    def test_full_at_capacity(self, tracker):
        tracker.reserve(("h", 0, 0))
        tracker.reserve(("h", 0, 0))
        assert tracker.is_full(("h", 0, 0))
        with pytest.raises(RoutingError):
            tracker.reserve(("h", 0, 0))

    def test_release_decrements(self, tracker):
        tracker.reserve(("h", 0, 0))
        tracker.release(("h", 0, 0))
        assert tracker.occupancy(("h", 0, 0)) == 0

    def test_release_reports_whether_it_opened_capacity(self, tracker):
        tracker.reserve(("h", 0, 0))
        tracker.reserve(("h", 0, 0))
        assert tracker.release(("h", 0, 0)) is True
        assert tracker.release(("h", 0, 0)) is False

    def test_release_without_reserve(self, tracker):
        with pytest.raises(RoutingError):
            tracker.release(("h", 0, 0))

    def test_unknown_channel(self, tracker):
        with pytest.raises(FabricError):
            tracker.reserve(("h", 99, 99))

    def test_unknown_channel_release(self, tracker):
        with pytest.raises(RoutingError):
            tracker.release(("h", 99, 99))

    def test_unknown_channel_queries(self, tracker):
        assert tracker.occupancy(("h", 99, 99)) == 0
        assert tracker.is_full(("h", 99, 99)) is False

    def test_invalid_capacity(self, small_fabric_4x4):
        with pytest.raises(RoutingError):
            CongestionTracker(small_fabric_4x4, channel_capacity=0)

    def test_a_refused_reserve_changes_nothing(self, tracker):
        tracker.reserve(("h", 0, 0))
        tracker.reserve(("h", 0, 0))
        before = (tracker.epoch, tracker.snapshot())
        with pytest.raises(RoutingError):
            tracker.reserve(("h", 0, 0))
        with pytest.raises(FabricError):
            tracker.reserve(("h", 99, 99))
        assert (tracker.epoch, tracker.snapshot()) == before

    def test_capacity_one_release_always_opens_capacity(self, small_fabric_4x4):
        tracker = CongestionTracker(small_fabric_4x4, channel_capacity=1)
        tracker.reserve(("h", 0, 0))
        assert tracker.is_full(("h", 0, 0))
        assert tracker.release(("h", 0, 0)) is True
        tracker.reserve(("h", 0, 0))  # the freed slot can be booked again
        assert tracker.occupancy(("h", 0, 0)) == 1


class TestReserveAll:
    def test_atomic_success(self, tracker):
        tracker.reserve_all([("h", 0, 0), ("v", 0, 0)])
        assert tracker.occupancy(("h", 0, 0)) == 1
        assert tracker.occupancy(("v", 0, 0)) == 1

    def test_atomic_rollback_on_failure(self, tracker):
        tracker.reserve(("v", 0, 0))
        tracker.reserve(("v", 0, 0))
        with pytest.raises(RoutingError):
            tracker.reserve_all([("h", 0, 0), ("v", 0, 0)])
        # The first reservation must have been rolled back.
        assert tracker.occupancy(("h", 0, 0)) == 0

    def test_atomic_rollback_on_unknown_channel(self, tracker):
        with pytest.raises(FabricError):
            tracker.reserve_all([("h", 0, 0), ("h", 99, 99)])
        assert tracker.occupancy(("h", 0, 0)) == 0
        assert tracker.snapshot() == {}

    def test_duplicate_channels_in_one_call(self, tracker):
        tracker.reserve_all([("h", 0, 0), ("h", 0, 0)])
        assert tracker.occupancy(("h", 0, 0)) == 2

    def test_rollback_keeps_earlier_bookings(self, tracker):
        tracker.reserve(("h", 0, 0))
        tracker.reserve_all([("v", 0, 0), ("v", 0, 0)])
        with pytest.raises(RoutingError):
            tracker.reserve_all([("h", 0, 0), ("v", 0, 0)])
        assert tracker.snapshot() == {("h", 0, 0): 1, ("v", 0, 0): 2}


class TestStats:
    def test_snapshot_only_nonzero(self, tracker):
        tracker.reserve(("h", 0, 0))
        assert tracker.snapshot() == {("h", 0, 0): 1}

    def test_snapshot_drops_released_channels(self, tracker):
        tracker.reserve(("h", 0, 0))
        tracker.reserve(("v", 0, 0))
        tracker.release(("h", 0, 0))
        assert tracker.snapshot() == {("v", 0, 0): 1}

    def test_snapshot_is_a_copy(self, tracker):
        tracker.reserve(("h", 0, 0))
        tracker.snapshot()[("h", 0, 0)] = 5
        assert tracker.occupancy(("h", 0, 0)) == 1

    def test_snapshot_lists_channels_in_occupation_order(self, tracker):
        for channel in [("v", 1, 0), ("h", 0, 0), ("v", 0, 0)]:
            tracker.reserve(channel)
        tracker.reserve(("v", 1, 0))  # a second booking keeps the first place
        assert list(tracker.snapshot()) == [("v", 1, 0), ("h", 0, 0), ("v", 0, 0)]

    def test_draining_every_channel_empties_the_tracker(self, tracker, small_fabric_4x4):
        channels = list(small_fabric_4x4.channels)
        capacity = tracker.channel_capacity
        for channel in channels:
            tracker.reserve_all([channel] * capacity)
        assert all(tracker.is_full(channel) for channel in channels)
        assert sum(tracker.snapshot().values()) == len(channels) * capacity
        for channel in channels:
            for _ in range(capacity):
                tracker.release(channel)
        assert tracker.snapshot() == {}
        assert not any(tracker.levels)


class TestEpoch:
    def test_epoch_advances_on_every_mutation(self, tracker):
        seen = [tracker.epoch]
        tracker.reserve(("h", 0, 0))
        seen.append(tracker.epoch)
        tracker.release(("h", 0, 0))
        seen.append(tracker.epoch)
        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen)

    def test_epoch_stable_across_queries(self, tracker):
        before = tracker.epoch
        tracker.occupancy(("h", 0, 0))
        tracker.is_full(("h", 0, 0))
        tracker.snapshot()
        assert tracker.epoch == before

    def test_distinct_trackers_never_share_an_epoch(self, small_fabric_4x4):
        first = CongestionTracker(small_fabric_4x4, 2)
        second = CongestionTracker(small_fabric_4x4, 2)
        assert first.epoch != second.epoch
