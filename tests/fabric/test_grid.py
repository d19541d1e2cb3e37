"""Tests for the cell-grid rendering (Figure 4)."""

from repro.fabric.builder import quale_fabric
from repro.fabric.grid import CellType, cell_counts, grid_to_text, render_cell_grid


class TestCellGrid:
    def test_dimensions(self, small_fabric_4x4):
        grid = render_cell_grid(small_fabric_4x4)
        assert len(grid) == small_fabric_4x4.cell_rows
        assert all(len(row) == small_fabric_4x4.cell_cols for row in grid)

    def test_component_counts(self, small_fabric_4x4):
        counts = cell_counts(small_fabric_4x4)
        assert counts[CellType.JUNCTION] == len(small_fabric_4x4.junctions)
        assert counts[CellType.TRAP] == small_fabric_4x4.num_traps
        channel_cells = sum(c.length for c in small_fabric_4x4.channels.values())
        assert counts[CellType.CHANNEL] == channel_cells

    def test_quale_fabric_is_45_by_85(self):
        grid = render_cell_grid(quale_fabric())
        assert len(grid) == 45
        assert len(grid[0]) == 85

    def test_corners_are_junctions(self, small_fabric_4x4):
        grid = render_cell_grid(small_fabric_4x4)
        assert grid[0][0] is CellType.JUNCTION
        assert grid[-1][-1] is CellType.JUNCTION

    def test_text_rendering(self, tiny_fabric):
        text = grid_to_text(render_cell_grid(tiny_fabric))
        lines = text.splitlines()
        assert len(lines) == tiny_fabric.cell_rows
        assert lines[0].startswith("J")
        assert "T" in text

