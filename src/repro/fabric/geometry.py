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


def distance_to_point(cell: Coord, point: tuple[float, float]) -> float:
    """L1 distance between a cell and a (possibly fractional) point."""
    return abs(cell[0] - point[0]) + abs(cell[1] - point[1])
