"""Target trap selection for two-qubit instructions.

The paper (Section IV.B) chooses the trap in which a two-qubit operation will
take place "near the median location of the destination and source qubits in
the X and Y directions": the median point is computed first, then the nearest
available trap to that point is selected.  :func:`nearest_free_traps` is the
ranking every meeting-point rule shares; only the point differs.
"""

from __future__ import annotations

from typing import Iterable

from repro.fabric.components import Trap, TrapId
from repro.fabric.fabric import Fabric
from repro.fabric.geometry import median_point


def nearest_free_traps(
    fabric: Fabric,
    point: tuple[float, float],
    occupied: set[TrapId],
    count: int,
    skipped: set[TrapId] | None = None,
) -> list[Trap]:
    """Up to ``count`` traps nearest ``point`` that are not ``occupied``.

    Traps are ranked by :meth:`~repro.fabric.fabric.Fabric.ranked_traps`,
    nearest first.  ``skipped``, when given, receives the occupied traps
    passed over on the way: together with the returned traps they are
    exactly the traps whose occupancy shaped the result.
    """
    candidates: list[Trap] = []
    for trap in fabric.ranked_traps(point):
        if trap.id in occupied:
            if skipped is not None:
                skipped.add(trap.id)
            continue
        candidates.append(trap)
        if len(candidates) >= count:
            break
    return candidates


def select_target_trap(
    fabric: Fabric,
    operand_traps: list[TrapId],
    *,
    occupied: Iterable[TrapId] = (),
    max_candidates: int = 1,
    skipped: set[TrapId] | None = None,
) -> list[Trap]:
    """Rank candidate meeting traps for a two-qubit instruction.

    Args:
        fabric: The fabric.
        operand_traps: Current trap ids of the operand qubits (one entry per
            operand; the paper's source and destination).
        occupied: Traps that must not be chosen because qubits other than the
            operands rest in them, or other in-flight instructions reserved
            them.  The caller (the simulator) is responsible for *not*
            including an operand's own trap here when meeting there is legal,
            i.e. when no third qubit shares it.  A set is read as it is,
            never copied.
        max_candidates: Number of candidates to return, nearest first.
            Returning more than one lets the router fall back to the next
            nearest trap when the nearest one is unreachable under the current
            congestion.
        skipped: Optional output set receiving the occupied traps passed over
            during the ranking.  Together with the returned candidates these
            are exactly the traps whose occupancy status shaped the result —
            the router records them as wake-set keys on routing failure.

    Returns:
        Up to ``max_candidates`` traps ordered by distance to the median of
        the operand positions.
    """
    excluded = occupied if isinstance(occupied, set) else set(occupied)
    cells = [fabric.trap(trap_id).cell for trap_id in operand_traps]
    return nearest_free_traps(
        fabric, median_point(cells), excluded, max_candidates, skipped
    )
