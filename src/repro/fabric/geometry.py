"""Geometric primitives shared by the fabric and routing models.

Coordinates are ``(row, column)`` pairs over the fabric's cell grid, with the
origin at the top-left corner (matching the orientation of the paper's
Figure 4).
"""

from __future__ import annotations

from enum import Enum

Coord = tuple[int, int]


class Orientation(Enum):
    """Orientation of a channel."""

    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"


class Direction(Enum):
    """Cardinal movement directions on the cell grid."""

    NORTH = (-1, 0)
    SOUTH = (1, 0)
    EAST = (0, 1)
    WEST = (0, -1)

    @property
    def delta(self) -> Coord:
        """The (row, column) step of one move in this direction."""
        return self.value

    @property
    def orientation(self) -> Orientation:
        """Orientation of channels this direction travels along."""
        if self in (Direction.EAST, Direction.WEST):
            return Orientation.HORIZONTAL
        return Orientation.VERTICAL

    @property
    def opposite(self) -> "Direction":
        """The reverse direction."""
        return {
            Direction.NORTH: Direction.SOUTH,
            Direction.SOUTH: Direction.NORTH,
            Direction.EAST: Direction.WEST,
            Direction.WEST: Direction.EAST,
        }[self]


def midpoint(a: Coord, b: Coord) -> tuple[float, float]:
    """Geometric midpoint of two cell coordinates (may be fractional)."""
    return ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)


def median_point(points: list[Coord]) -> tuple[float, float]:
    """Coordinate-wise median of a list of cell coordinates.

    The paper selects the target trap of a two-qubit operation near the
    median location of its operands in the X and Y directions; with two
    operands the median coincides with the midpoint.
    """
    if not points:
        raise ValueError("median_point requires at least one point")
    rows = sorted(p[0] for p in points)
    cols = sorted(p[1] for p in points)
    mid = len(points) // 2
    if len(points) % 2 == 1:
        return (float(rows[mid]), float(cols[mid]))
    return ((rows[mid - 1] + rows[mid]) / 2.0, (cols[mid - 1] + cols[mid]) / 2.0)


def distance_to_point(cell: Coord, point: tuple[float, float]) -> float:
    """L1 distance between a cell and a (possibly fractional) point."""
    return abs(cell[0] - point[0]) + abs(cell[1] - point[1])
