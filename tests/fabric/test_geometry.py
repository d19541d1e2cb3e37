"""Tests for geometric primitives."""

import pytest

from repro.fabric.geometry import (
    Direction,
    Orientation,
    distance_to_point,
    median_point,
    midpoint,
)


class TestDirection:
    def test_deltas(self):
        assert Direction.NORTH.delta == (-1, 0)
        assert Direction.EAST.delta == (0, 1)

    def test_orientation(self):
        assert Direction.EAST.orientation is Orientation.HORIZONTAL
        assert Direction.SOUTH.orientation is Orientation.VERTICAL

    def test_opposite(self):
        assert Direction.NORTH.opposite is Direction.SOUTH
        assert Direction.WEST.opposite is Direction.EAST


class TestDistances:
    def test_midpoint(self):
        assert midpoint((0, 0), (4, 6)) == (2.0, 3.0)

    def test_distance_to_point(self):
        assert distance_to_point((1, 1), (2.5, 1.0)) == pytest.approx(1.5)


class TestMedianPoint:
    def test_two_points_is_midpoint(self):
        assert median_point([(0, 0), (4, 6)]) == (2.0, 3.0)

    def test_single_point(self):
        assert median_point([(3, 7)]) == (3.0, 7.0)

    def test_odd_number_of_points(self):
        assert median_point([(0, 0), (10, 10), (2, 4)]) == (2.0, 4.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median_point([])
