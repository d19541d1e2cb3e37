"""Edge weight function of the routing graph (paper Eq. 2).

The weight of a channel edge is::

    (n + 1) * channel_length * T_move     if n < channel_capacity
    infinity                              otherwise

where ``n`` is the current occupancy of the channel.  Scaling by ``T_move``
puts channel weights and turn-edge weights (``T_turn``) on the same time
scale, so a single Dijkstra trades congestion, distance and turns against
each other — exactly the combination of ``T_routing`` and ``T_congestion``
the paper's router minimises.
"""

from __future__ import annotations

import math

from repro.routing.congestion import CongestionTracker
from repro.routing.graph_model import EdgeKind, GraphEdge
from repro.technology import TechnologyParams

#: Weight assigned to an unusable (fully congested) edge.
INFINITE_WEIGHT = math.inf


def channel_weight(
    occupancy: int,
    length: int,
    capacity: int,
    technology: TechnologyParams,
) -> float:
    """Eq. (2): weight of traversing a channel with ``occupancy`` qubits inside."""
    if occupancy >= capacity:
        return INFINITE_WEIGHT
    return (occupancy + 1) * length * technology.move_delay


def partial_channel_weight(
    occupancy: int,
    cells: int,
    capacity: int,
    technology: TechnologyParams,
) -> float:
    """Eq. (2) applied to a partial traversal of ``cells`` cells of a channel.

    Used for the first and last channels of a route, which are entered or
    left at a trap site part-way along the channel.
    """
    if occupancy >= capacity:
        return INFINITE_WEIGHT
    return (occupancy + 1) * cells * technology.move_delay


def turn_weight(technology: TechnologyParams) -> float:
    """Weight of a turn edge: ``T_turn``.

    Only the turn-aware graph has turn edges; the turn-oblivious model (prior
    tools) selects paths on a graph without them, which is exactly the
    shortcoming Figure 5 illustrates.
    """
    return technology.turn_delay


def edge_weight(
    edge: GraphEdge,
    congestion: CongestionTracker,
    technology: TechnologyParams,
) -> float:
    """Weight of a reference-graph edge under the current congestion state.

    The reference pricing that the test oracle's kernel runs over
    :class:`~repro.routing.graph_model.RoutingGraph`; jobs read the
    :class:`~repro.routing.compiled.CompiledRoutingGraph` weight tables,
    which hold the same values.

    Args:
        edge: The edge being considered by Dijkstra.
        congestion: Current channel occupancy.
        technology: Delay parameters.
    """
    if edge.kind is EdgeKind.TURN:
        return turn_weight(technology)
    assert edge.channel_id is not None
    return channel_weight(
        congestion.occupancy(edge.channel_id),
        edge.length,
        congestion.channel_capacity,
        technology,
    )
