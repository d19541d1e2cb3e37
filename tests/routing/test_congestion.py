"""Tests for the congestion tracker."""

import pytest

from repro.errors import FabricError, RoutingError
from repro.routing.congestion import CongestionTracker
from repro.technology import MAX_CHANNEL_CAPACITY


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
        # An unknown channel is a fabric error on release, as on reserve,
        # not a release of a known channel that was never reserved.
        tracker.reserve(("h", 0, 0))
        before = (list(tracker.levels), tracker.snapshot())
        with pytest.raises(FabricError, match="unknown channel"):
            tracker.release(("h", 99, 99))
        with pytest.raises(FabricError, match="unknown channel"):
            tracker.release(("x", 99, 99))
        assert (tracker.levels, tracker.snapshot()) == before

    def test_unknown_channel_queries(self, tracker):
        assert tracker.occupancy(("h", 99, 99)) == 0
        assert tracker.is_full(("h", 99, 99)) is False

    @pytest.mark.parametrize("capacity", [0, MAX_CHANNEL_CAPACITY + 1, 10**9])
    def test_invalid_capacity(self, small_fabric_4x4, capacity):
        # The compiled routing graph sizes its weight tables by the capacity.
        with pytest.raises(RoutingError, match="channel_capacity must be at"):
            CongestionTracker(small_fabric_4x4, channel_capacity=capacity)

    def test_a_refused_reserve_changes_nothing(self, tracker):
        tracker.reserve(("h", 0, 0))
        tracker.reserve(("h", 0, 0))
        before = (list(tracker.levels), tracker.snapshot())
        with pytest.raises(RoutingError):
            tracker.reserve(("h", 0, 0))
        with pytest.raises(FabricError):
            tracker.reserve(("h", 99, 99))
        assert (tracker.levels, tracker.snapshot()) == before

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


def _state(tracker):
    """Everything a refused bulk call must leave as it was."""
    return list(tracker.levels)


class TestBulkWrites:
    """``reserve_all`` and ``release_all`` write ``levels`` directly,
    all or nothing."""

    def test_release_all_undoes_reserve_all(self, tracker):
        channels = [("v", 1, 0), ("h", 0, 0), ("v", 1, 0)]
        tracker.reserve(("v", 0, 0))
        levels = list(tracker.levels)
        tracker.reserve_all(channels)
        assert tracker.snapshot() == {("v", 0, 0): 1, ("v", 1, 0): 2, ("h", 0, 0): 1}
        tracker.release_all(channels)
        assert tracker.levels == levels

    def test_reserve_all_rolls_back_at_a_full_channel_mid_list(self, tracker):
        tracker.reserve(("h", 0, 0))
        tracker.reserve_all([("v", 1, 0), ("v", 1, 0)])
        before = _state(tracker)
        with pytest.raises(RoutingError, match="capacity"):
            tracker.reserve_all([("v", 0, 0), ("h", 0, 0), ("v", 1, 0), ("h", 1, 0)])
        assert _state(tracker) == before

    def test_reserve_all_rolls_back_at_a_duplicate_past_capacity(self, tracker):
        tracker.reserve(("v", 0, 0))
        before = _state(tracker)
        with pytest.raises(RoutingError):
            tracker.reserve_all([("h", 0, 0), ("v", 0, 0), ("v", 0, 0)])
        assert _state(tracker) == before

    def test_reserve_all_rolls_back_at_an_unknown_channel(self, tracker):
        tracker.reserve(("v", 0, 0))
        before = _state(tracker)
        with pytest.raises(FabricError, match="unknown channel"):
            tracker.reserve_all([("h", 0, 0), ("v", 0, 0), ("x", 99, 99)])
        assert _state(tracker) == before

    def test_release_all_rolls_back_at_an_unreserved_channel(self, tracker):
        tracker.reserve_all([("h", 0, 0), ("v", 0, 0), ("v", 1, 0)])
        before = _state(tracker)
        with pytest.raises(RoutingError, match="more often than reserved"):
            tracker.release_all([("v", 0, 0), ("h", 0, 0), ("h", 1, 0)])
        assert _state(tracker) == before

    def test_release_all_rolls_back_at_a_duplicate_past_its_reservations(self, tracker):
        tracker.reserve_all([("h", 0, 0), ("v", 0, 0)])
        before = _state(tracker)
        with pytest.raises(RoutingError):
            tracker.release_all([("v", 0, 0), ("h", 0, 0), ("h", 0, 0)])
        assert _state(tracker) == before

    def test_release_all_rolls_back_at_an_unknown_channel(self, tracker):
        tracker.reserve_all([("h", 0, 0), ("v", 0, 0)])
        before = _state(tracker)
        with pytest.raises(FabricError, match="unknown channel"):
            tracker.release_all([("h", 0, 0), ("x", 99, 99), ("v", 0, 0)])
        assert _state(tracker) == before

    def test_empty_calls_change_no_occupancy(self, tracker):
        tracker.reserve(("h", 0, 0))
        levels = list(tracker.levels)
        tracker.reserve_all([])
        tracker.release_all([])
        assert tracker.levels == levels


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

