"""Weighted-graph model of the fabric used for path selection.

Two variants are supported, mirroring the paper's Figure 5:

* **Turn-oblivious** (Figure 5.b, the model used by prior tools): one vertex
  per junction, one edge per channel.  Equal-Manhattan-distance paths look
  identical even though they may differ by many slow turns.
* **Turn-aware** (Figure 5.c, QSPR's model): every junction is replaced by a
  *horizontal-plane* vertex and a *vertical-plane* vertex connected by a turn
  edge whose weight is the turn delay.  Horizontal channels connect
  horizontal-plane vertices, vertical channels connect vertical-plane
  vertices, so any change of direction necessarily crosses a turn edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.fabric.components import ChannelId, JunctionId, TrapId
from repro.fabric.fabric import Fabric
from repro.fabric.geometry import Orientation

#: A routing-graph node: ``(junction_id, plane)``.  In the turn-oblivious
#: model the plane is always ``"*"``.
Node = tuple[JunctionId, str]

#: Plane labels.
HORIZONTAL_PLANE = "h"
VERTICAL_PLANE = "v"
ANY_PLANE = "*"


class EdgeKind(Enum):
    """Kind of a routing-graph edge."""

    CHANNEL = "channel"
    TURN = "turn"


@dataclass(frozen=True)
class GraphEdge:
    """A directed traversal of a routing-graph edge.

    Attributes:
        source: Node the traversal starts at.
        target: Node the traversal ends at.
        kind: Channel traversal or a turn inside a junction.
        channel_id: The channel traversed (``None`` for turn edges).
        junction_id: The junction turned in (``None`` for channel edges).
        length: Channel length in cells (0 for turn edges).
    """

    source: Node
    target: Node
    kind: EdgeKind
    channel_id: ChannelId | None
    junction_id: JunctionId | None
    length: int

    @property
    def is_turn(self) -> bool:
        """Whether this edge is a turn edge."""
        return self.kind is EdgeKind.TURN


def _plane_of(orientation: Orientation) -> str:
    return HORIZONTAL_PLANE if orientation is Orientation.HORIZONTAL else VERTICAL_PLANE


class RoutingGraph:
    """Adjacency structure of the fabric's routing graph.

    The graph is static; congestion-dependent weights are priced per query
    (by the compiled kernel's weight tables, or by the reference
    :func:`repro.routing.weights.edge_weight`), so a single instance can be
    shared by all mapping runs on the same fabric.

    ``trap_attachments`` maps each trap to where its routes join the
    junction lattice: each endpoint node of its channel (a, then b) with the
    channel cells between that junction and the trap.
    """

    def __init__(self, fabric: Fabric, *, turn_aware: bool = True) -> None:
        self.fabric = fabric
        self.turn_aware = turn_aware
        self._adjacency: dict[Node, list[GraphEdge]] = {}
        self.trap_attachments: dict[TrapId, tuple[tuple[Node, int], ...]] = {}
        self._build()

    @classmethod
    def shared(cls, fabric: Fabric, *, turn_aware: bool = True) -> "RoutingGraph":
        """The memoised graph of ``fabric`` (fabrics are immutable).

        Routers and simulators are constructed per mapping pass; sharing the
        graph makes that construction O(1) after the first pass on a fabric.
        The memo lives on the fabric instance itself (a fabric↔graph
        reference cycle the garbage collector reclaims as a unit), so sweeps
        over many fabrics do not accumulate graphs.
        """
        per_fabric: dict[bool, RoutingGraph] = fabric.__dict__.setdefault(
            "_shared_routing_graphs", {}
        )
        graph = per_fabric.get(turn_aware)
        if graph is None:
            graph = per_fabric[turn_aware] = cls(fabric, turn_aware=turn_aware)
        return graph

    def _add_edge(self, edge: GraphEdge) -> None:
        self._adjacency.setdefault(edge.source, []).append(edge)

    def _build(self) -> None:
        fabric = self.fabric
        if self.turn_aware:
            for junction_id in fabric.junctions:
                h_node: Node = (junction_id, HORIZONTAL_PLANE)
                v_node: Node = (junction_id, VERTICAL_PLANE)
                self._adjacency.setdefault(h_node, [])
                self._adjacency.setdefault(v_node, [])
                self._add_edge(GraphEdge(h_node, v_node, EdgeKind.TURN, None, junction_id, 0))
                self._add_edge(GraphEdge(v_node, h_node, EdgeKind.TURN, None, junction_id, 0))
        else:
            for junction_id in fabric.junctions:
                self._adjacency.setdefault((junction_id, ANY_PLANE), [])

        for channel in fabric.channels.values():
            plane = _plane_of(channel.orientation) if self.turn_aware else ANY_PLANE
            node_a: Node = (channel.endpoint_a, plane)
            node_b: Node = (channel.endpoint_b, plane)
            self._add_edge(
                GraphEdge(node_a, node_b, EdgeKind.CHANNEL, channel.id, None, channel.length)
            )
            self._add_edge(
                GraphEdge(node_b, node_a, EdgeKind.CHANNEL, channel.id, None, channel.length)
            )

        for trap in fabric.traps.values():
            channel = fabric.channel(trap.channel_id)
            self.trap_attachments[trap.id] = tuple(
                (node, channel.distance_from_endpoint(node[0], trap.offset))
                for node in self.channel_endpoints(channel.id)
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list[Node]:
        """All routing-graph nodes."""
        return list(self._adjacency)

    @property
    def num_nodes(self) -> int:
        """Number of routing-graph nodes."""
        return len(self._adjacency)

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return sum(len(edges) for edges in self._adjacency.values())

    def edges_from(self, node: Node) -> list[GraphEdge]:
        """Outgoing edges of ``node`` (empty list for unknown nodes)."""
        return self._adjacency.get(node, [])

    def channel_plane(self, channel_id: ChannelId) -> str:
        """Plane label of the nodes a channel connects in this graph."""
        if not self.turn_aware:
            return ANY_PLANE
        return _plane_of(self.fabric.channel(channel_id).orientation)

    def channel_endpoints(self, channel_id: ChannelId) -> tuple[Node, Node]:
        """The two routing-graph nodes a channel connects (endpoint a, b)."""
        channel = self.fabric.channel(channel_id)
        plane = self.channel_plane(channel_id)
        return ((channel.endpoint_a, plane), (channel.endpoint_b, plane))

    def __repr__(self) -> str:
        model = "turn-aware" if self.turn_aware else "turn-oblivious"
        return f"RoutingGraph({model}, nodes={self.num_nodes}, edges={self.num_edges})"
