"""ASCII visualisation of fabrics, placements and traces.

The paper's Figure 4 shows the fabric as a character grid; these helpers
reproduce that style in the terminal and additionally overlay qubit
placements and render per-qubit activity timelines from a control trace.
"""

from repro.viz.fabric_ascii import render_fabric, render_placement
from repro.viz.trace_render import render_gantt

__all__ = [
    "render_fabric",
    "render_placement",
    "render_gantt",
]
