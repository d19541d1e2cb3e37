"""Tests for geometric primitives, and for the reference oracle's median
rule (the router computes the two-operand midpoint inline)."""

import pytest

from reference_oracle import median_point
from repro.fabric.geometry import distance_to_point


class TestDistances:
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
