"""Placement of qubits into fabric traps.

Three placers are provided, matching the paper's evaluation:

* :class:`CenterPlacer` — QUALE's *center placement*: qubits go to the free
  traps nearest to the center of the fabric, in declaration (or a permuted)
  order.  It ignores the structure of the QIDG.
* :class:`MonteCarloPlacer` — the Monte-Carlo baseline of Section V.A: try
  ``m'`` random center-placement permutations, map the circuit for each and
  keep the best.
* :class:`MvfbPlacer` — the paper's Multi-start Variable-length
  Forward/Backward placer (Section IV.A): for each of ``m`` random seeds,
  alternate forward (QIDG) and backward (UIDG) mapping passes, feeding the
  final placement of each pass into the next, until the result stops
  improving for three consecutive runs.
"""

from repro.placement.base import Placement
from repro.placement.center import CenterPlacer, center_placement
from repro.placement.monte_carlo import MonteCarloPlacer
from repro.placement.mvfb import MvfbPlacer

__all__ = [
    "Placement",
    "CenterPlacer",
    "center_placement",
    "MonteCarloPlacer",
    "MvfbPlacer",
]
