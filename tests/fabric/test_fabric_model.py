"""Tests for fabric components, the builder and the Fabric container."""

from collections import Counter

import pytest

from repro.errors import FabricError
from repro.fabric.builder import FabricSpec, build_fabric, linear_fabric, quale_fabric, small_fabric
from repro.fabric.components import Channel, Trap
from repro.fabric.fabric import Fabric
from repro.fabric.geometry import Orientation, distance_to_point


class TestFabricSpec:
    def test_cell_dimensions(self):
        spec = FabricSpec(junction_rows=12, junction_cols=22, channel_length=3)
        assert spec.cell_rows == 45
        assert spec.cell_cols == 85

    def test_pitch(self):
        assert FabricSpec(channel_length=3).pitch == 4

    def test_invalid_specs(self):
        with pytest.raises(FabricError):
            FabricSpec(junction_rows=0)
        with pytest.raises(FabricError):
            FabricSpec(channel_length=0)
        with pytest.raises(FabricError):
            FabricSpec(traps_per_channel=3)
        with pytest.raises(FabricError):
            FabricSpec(traps_per_channel=2, channel_length=1)


class TestBuilder:
    def test_quale_fabric_footprint(self):
        fabric = quale_fabric()
        assert (fabric.cell_rows, fabric.cell_cols) == (45, 85)
        assert len(fabric.junctions) == 12 * 22
        assert len(fabric.channels) == 12 * 21 + 11 * 22

    def test_quale_fabric_has_enough_traps(self):
        # The largest benchmark has 23 qubits.
        assert quale_fabric().num_traps >= 23

    def test_channel_lengths(self, small_fabric_4x4):
        assert all(c.length == 3 for c in small_fabric_4x4.channels.values())

    def test_channel_orientations(self, small_fabric_4x4):
        horizontal = [c for c in small_fabric_4x4.channels.values() if c.id[0] == "h"]
        vertical = [c for c in small_fabric_4x4.channels.values() if c.id[0] == "v"]
        assert all(c.orientation is Orientation.HORIZONTAL for c in horizontal)
        assert all(c.orientation is Orientation.VERTICAL for c in vertical)
        assert len(horizontal) == 4 * 3
        assert len(vertical) == 3 * 4

    def test_traps_attach_to_horizontal_channels(self, small_fabric_4x4):
        for trap in small_fabric_4x4.traps.values():
            assert trap.channel_id[0] == "h"
            channel = small_fabric_4x4.channel(trap.channel_id)
            assert 1 <= trap.offset <= channel.length

    def test_trap_cells_unique(self, small_fabric_4x4):
        cells = [trap.cell for trap in small_fabric_4x4.traps.values()]
        assert len(cells) == len(set(cells))

    def test_no_traps_spec_rejected(self):
        with pytest.raises(FabricError):
            build_fabric(FabricSpec(traps_per_channel=0))

    def test_linear_fabric(self):
        fabric = linear_fabric(junction_cols=5)
        assert len(fabric.junctions) == 10

    def test_small_fabric_defaults(self):
        fabric = small_fabric()
        assert isinstance(fabric, Fabric)
        assert fabric.num_traps == 2 * 4 * 3


class TestChannelGeometry:
    def test_other_endpoint(self, tiny_fabric):
        channel = tiny_fabric.channel(("h", 0, 0))
        assert channel.other_endpoint((0, 0)) == (0, 1)
        assert channel.other_endpoint((0, 1)) == (0, 0)
        with pytest.raises(FabricError):
            channel.other_endpoint((5, 5))

    def test_distance_from_endpoint(self, tiny_fabric):
        channel = tiny_fabric.channel(("h", 0, 0))
        assert channel.distance_from_endpoint((0, 0), 1) == 1
        assert channel.distance_from_endpoint((0, 1), 1) == channel.length
        with pytest.raises(FabricError):
            channel.distance_from_endpoint((0, 0), 99)

    def test_invalid_channel_construction(self):
        with pytest.raises(FabricError):
            Channel(("h", 0, 0), Orientation.HORIZONTAL, (0, 0), (0, 1), 0, ())
        with pytest.raises(FabricError):
            Channel(("h", 0, 0), Orientation.HORIZONTAL, (0, 0), (0, 1), 2, ((0, 1),))


class TestFabricQueries:
    def test_lookup_errors(self, tiny_fabric):
        with pytest.raises(FabricError):
            tiny_fabric.channel(("h", 9, 9))
        with pytest.raises(FabricError):
            tiny_fabric.trap(9999)

    def test_traps_on_channel_sorted(self, small_fabric_4x4):
        traps = small_fabric_4x4.traps_on(("h", 0, 0))
        assert len(traps) == 2
        assert traps[0].offset < traps[1].offset

    def test_junction_degrees(self, small_fabric_4x4):
        degree = Counter()
        for channel in small_fabric_4x4.channels.values():
            degree[channel.endpoint_a] += 1
            degree[channel.endpoint_b] += 1
        assert set(degree) == set(small_fabric_4x4.junctions)
        # 4 corners, 8 edge junctions and 4 interior ones on a 4x4 lattice.
        assert sorted(Counter(degree.values()).items()) == [(2, 4), (3, 8), (4, 4)]

    def test_traps_by_distance_ranks_every_trap_once(self, small_fabric_4x4):
        ranked = [trap.id for trap in small_fabric_4x4.traps_by_distance((0.0, 0.0))]
        assert sorted(ranked) == sorted(small_fabric_4x4.traps)

    def test_traps_by_distance_returns_a_fresh_list(self, small_fabric_4x4):
        first = small_fabric_4x4.traps_by_distance((1.0, 2.0))
        first.clear()
        second = small_fabric_4x4.traps_by_distance((1.0, 2.0))
        assert len(second) == small_fabric_4x4.num_traps

    def test_center(self):
        fabric = quale_fabric()
        assert fabric.center == (22.0, 42.0)

    def test_traps_by_distance_sorted(self, small_fabric_4x4):
        ordered = small_fabric_4x4.traps_by_distance(small_fabric_4x4.center)
        distances = [
            abs(t.cell[0] - small_fabric_4x4.center[0]) + abs(t.cell[1] - small_fabric_4x4.center[1])
            for t in ordered
        ]
        assert distances == sorted(distances)

    def test_validation_rejects_dangling_references(self):
        fabric = small_fabric()
        with pytest.raises(FabricError):
            Fabric(
                "broken",
                fabric.junctions,
                fabric.channels,
                {0: Trap(0, ("h", 99, 99), 1, (1, 1))},
                fabric.cell_rows,
                fabric.cell_cols,
            )


def _half_cell_points(fabric):
    """Every point of the cell grid whose coordinates are multiples of 0.5."""
    return [
        (row / 2.0, col / 2.0)
        for row in range(2 * fabric.cell_rows - 1)
        for col in range(2 * fabric.cell_cols - 1)
    ]


class TestSpatialMemo:
    @pytest.mark.parametrize("build", [small_fabric, quale_fabric], ids=["4x4", "quale"])
    def test_cached_ordering_matches_a_fresh_sort(self, build):
        # Medians of two operand cells are half-cell points, so these are
        # every point the router ranks traps around.  Each point is a memo
        # miss once, then served from the memo by both accessors.
        fabric = build()
        traps = list(fabric.traps.values())
        for point in _half_cell_points(fabric):
            fresh = sorted(
                traps, key=lambda trap: (distance_to_point(trap.cell, point), trap.id)
            )
            computed = fabric.ranked_traps(point)
            assert list(computed) == fresh, point
            assert fabric.traps_by_distance(point) == fresh, point
            assert fabric.ranked_traps(point) is computed

    def test_callers_get_independent_lists(self, small_fabric_4x4):
        point = (0.0, 0.0)
        first = small_fabric_4x4.traps_by_distance(point)
        first.pop()
        second = small_fabric_4x4.traps_by_distance(point)
        assert len(second) == len(small_fabric_4x4.traps)

    def test_cache_bound_respected(self, tiny_fabric):
        for i in range(tiny_fabric._TRAPS_BY_DISTANCE_CACHE_SIZE + 10):
            tiny_fabric.traps_by_distance((0.0, float(i)))
        assert (
            len(tiny_fabric._traps_by_distance_cache)
            <= tiny_fabric._TRAPS_BY_DISTANCE_CACHE_SIZE
        )
