"""The reference model of the routing graph: a dict of edge objects.

This is the readable definition of the graph the router searches, and the
test oracle's reference (``tests/reference_oracle.py``): its Dijkstra runs
over :class:`RoutingGraph` and prices each :class:`GraphEdge` with
:func:`repro.routing.weights.edge_weight`.  No job builds it.  Jobs search
:class:`~repro.routing.compiled.CompiledRoutingGraph`, which is built
straight from the fabric in this graph's node and edge order, so both
kernels return the same routes edge for edge (a test compares the two
graphs on every registered fabric).

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
from repro.routing.compiled import ANY_PLANE, HORIZONTAL_PLANE, VERTICAL_PLANE, Node


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
    """Adjacency structure of the fabric's routing graph (the reference model).

    The graph is static; congestion-dependent weights are priced per query
    by the reference :func:`repro.routing.weights.edge_weight`, so a single
    instance can serve every query on the same fabric.

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
        """A new reference graph of ``fabric``; nothing is memoised.

        No program path calls this.  It stays only because the benchmark's
        set-up line (``perfbench/qsprbench/library.py``) calls it by name
        and passes the result to
        :meth:`~repro.routing.compiled.CompiledRoutingGraph.shared`, which
        reads its fabric and model.  It memoises nothing on the fabric,
        since a graph that points back at its fabric would make a reference
        cycle.
        """
        return cls(fabric, turn_aware=turn_aware)

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
