"""Figure 4 — the 45x85 ion-trap fabric model.

The paper's Figure 4 shows the fabric released with QUALE as a 45x85 grid of
junction (J), channel (C) and trap (T) cells.  This benchmark builds our
parametric reconstruction of that fabric, renders the same cell map and
reports the component counts; it also times fabric construction and
routing-graph extraction, which every fresh fabric pays once.
"""

from __future__ import annotations

from repro.fabric.builder import quale_fabric
from repro.fabric.grid import CellType, cell_counts, grid_to_text, render_cell_grid
from repro.routing.compiled import CompiledRoutingGraph


from report_util import emit as _emit


def test_fig4_fabric_construction(benchmark):
    fabric = benchmark(quale_fabric)
    assert (fabric.cell_rows, fabric.cell_cols) == (45, 85)

    counts = cell_counts(fabric)
    grid = render_cell_grid(fabric)
    preview = "\n".join(grid_to_text(grid).splitlines()[:9])
    _emit(
        "Figure 4 - 45x85 ion-trap fabric reconstruction\n"
        "===============================================\n"
        f"junction cells: {counts[CellType.JUNCTION]}\n"
        f"channel cells : {counts[CellType.CHANNEL]}\n"
        f"trap cells    : {counts[CellType.TRAP]}\n"
        f"empty cells   : {counts[CellType.EMPTY]}\n"
        "top-left corner of the cell map (first 9 rows):\n"
        f"{preview}"
    )

    assert counts[CellType.JUNCTION] == 264
    assert counts[CellType.TRAP] >= 23  # enough traps for the largest benchmark


def test_fig4_cell_grid_rendering(benchmark):
    fabric = quale_fabric()
    grid = benchmark(render_cell_grid, fabric)
    assert len(grid) == 45 and len(grid[0]) == 85


def test_fig4_routing_graph_extraction(benchmark):
    fabric = quale_fabric()
    graph = benchmark(CompiledRoutingGraph, fabric, turn_aware=True)
    assert graph.num_nodes == 2 * len(fabric.junctions)
