"""Ion-trap circuit fabric model.

The fabric (the paper's "quantum circuit fabric", Figure 4) is modelled as a
lattice of *junctions* connected by *channels*; *traps* — the sites where
gate operations are performed — are attached to channels at integer offsets.
A cell-grid rendering (``J``/``C``/``T`` characters) is generated from the
lattice for visualisation.

* :mod:`repro.fabric.geometry` — orientations and coordinates.
* :mod:`repro.fabric.components` — :class:`Junction`, :class:`Channel`, :class:`Trap`.
* :mod:`repro.fabric.fabric` — the :class:`Fabric` container and queries.
* :mod:`repro.fabric.builder` — parametric construction, including
  :func:`quale_fabric` (the 45×85-cell instance used by all experiments) and
  :func:`small_fabric` (a compact instance for tests and examples).
* :mod:`repro.fabric.grid` — cell-grid rendering (Figure 4 style).
"""

from repro.fabric.geometry import Orientation
from repro.fabric.components import Channel, Junction, Trap
from repro.fabric.fabric import Fabric
from repro.fabric.builder import FabricBuilder, FabricSpec, quale_fabric, small_fabric, linear_fabric
from repro.fabric.grid import render_cell_grid, CellType

__all__ = [
    "Orientation",
    "Junction",
    "Channel",
    "Trap",
    "Fabric",
    "FabricSpec",
    "FabricBuilder",
    "quale_fabric",
    "small_fabric",
    "linear_fabric",
    "CellType",
    "render_cell_grid",
]
