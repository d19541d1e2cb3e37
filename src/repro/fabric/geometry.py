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
