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
        assert tracker.residual_capacity(("h", 0, 0)) == 2

    def test_reserve_increments(self, tracker):
        tracker.reserve(("h", 0, 0))
        assert tracker.occupancy(("h", 0, 0)) == 1
        assert tracker.residual_capacity(("h", 0, 0)) == 1

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
        assert tracker.residual_capacity(("h", 99, 99)) == 2

    def test_invalid_capacity(self, small_fabric_4x4):
        with pytest.raises(RoutingError):
            CongestionTracker(small_fabric_4x4, channel_capacity=0)


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


class TestStats:
    def test_total_reservations(self, tracker):
        tracker.reserve(("h", 0, 0))
        tracker.release(("h", 0, 0))
        tracker.reserve(("h", 0, 1))
        assert tracker.total_reservations == 2

    def test_busiest_channels(self, tracker):
        tracker.reserve(("h", 0, 0))
        tracker.reserve(("h", 0, 0))
        tracker.reserve(("h", 1, 0))
        busiest = tracker.busiest_channels
        assert busiest[0] == (("h", 0, 0), 2)

    def test_snapshot_only_nonzero(self, tracker):
        tracker.reserve(("h", 0, 0))
        assert tracker.snapshot() == {("h", 0, 0): 1}

    def test_reset(self, tracker):
        tracker.reserve(("h", 0, 0))
        tracker.reset()
        assert tracker.occupancy(("h", 0, 0)) == 0
        assert tracker.total_reservations == 0


class TestEpoch:
    def test_epoch_advances_on_every_mutation(self, tracker):
        seen = [tracker.epoch]
        tracker.reserve(("h", 0, 0))
        seen.append(tracker.epoch)
        tracker.release(("h", 0, 0))
        seen.append(tracker.epoch)
        tracker.reset()
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
