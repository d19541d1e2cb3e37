"""The routing graph the router searches: CSR arrays and a Dijkstra kernel.

:class:`CompiledRoutingGraph` is the weighted graph of the paper's
Figure 5, built straight from a fabric's junctions, channels and traps into
integer-indexed arrays.  The simulator re-plans operand journeys for every
issued instruction and every candidate meeting trap, so its search is the
inner loop of the whole reproduction.

**The graph.**  In the turn-aware model (Figure 5.c, QSPR's) every junction
becomes a *horizontal-plane* node and a *vertical-plane* node joined by a
*turn edge* priced at ``T_turn``.  Horizontal channels join
horizontal-plane nodes and vertical channels vertical-plane nodes, so any
change of direction crosses a turn edge.  The turn-oblivious model
(Figure 5.b, the prior tools') has one node per junction and no turn edges,
so paths of equal Manhattan length look alike however many slow turns they
take.  A node is a ``(junction_id, plane)`` tuple (:data:`Node`).

Order is part of the graph, because the kernel's heap breaks ties by a
push counter that follows it:

* nodes go per junction, in ``fabric.junctions`` order: its ``h`` then its
  ``v`` node, or its one ``*`` node;
* a turn-aware node's row starts with its turn edge;
* then come both directions of every channel, in ``fabric.channels``
  order: a→b on a's row, then b→a on b's row;
* edge ids number the rows in node order.

This is exactly the order of the reference
:class:`~repro.routing.graph_model.RoutingGraph`, so the kernel returns the
reference kernel's routes edge for edge, not merely routes of equal cost; a
test compares the two graphs on every registered fabric.

``_rows[i]`` holds the outgoing ``(target node, channel slot, edge id)``
triples of node ``i`` (a pre-zipped CSR row; tuple unpacking beats indexed
reads).  The slot is the edge channel's index into the congestion
tracker's ``levels``, and ``-1`` for a turn edge.  Per-edge arrays
(``_edge_source``, ``_edge_slot`` and the public ones on the class) and
the trap attachments complete the graph.  The kernel returns a route as a
tuple of edge ids, which :func:`~repro.routing.path.expand_route` reads
back through :attr:`~CompiledRoutingGraph.edge_channel` and
:attr:`~CompiledRoutingGraph.edge_junction`.  The build is plain loops
over the fabric's components that call nothing per edge, because a fresh
fabric's build is a visible share of a short job.

**One way.**  :meth:`CompiledRoutingGraph.shared` memoises the graph on the
fabric, and the graph points nowhere back: it copies what it reads (the
channel slots, each edge's channel, junction and length, the attachments)
and keeps no reference to the fabric, direct or weak.  So nothing on a
fabric forms a reference cycle, and reference counting frees a fabric and
its graphs as soon as the fabric's last holder (a job, or a service
worker's fabric memo) drops it; a job leaves nothing for the cycle
collector.  :meth:`~CompiledRoutingGraph.shared` also accepts a reference
:class:`~repro.routing.graph_model.RoutingGraph` and builds from its fabric
and model.  No program path passes one: it stays only because the
benchmark's set-up line (``perfbench/qsprbench/library.py``) calls
``CompiledRoutingGraph.shared(RoutingGraph.shared(fabric))``, and a broken
set-up line fails every untraced run of the benchmark.

The Dijkstra kernel works entirely on preallocated per-node arrays
(``dist``/``parent``/``origin``/``visited``).  Rather than clearing them per
query, every slot carries a *generation stamp*: bumping ``self._generation``
invalidates all previous state in O(1).  The heap uses lazy deletion
(superseded entries are skipped on pop) and the tie-breaking — a monotone
push counter — matches the object-graph reference kernel of the test
suite's oracle (``tests/reference_oracle.py``) entry-for-entry, so both
return identical routes, not merely equal-cost ones.

**Weight tables.**  Eq. (2) prices a channel edge from its own channel's
occupancy alone, and an occupancy is an integer from 0 to the channel
capacity.  So for each ``(T_move, T_turn, capacity)`` the graph memoises
every edge's weight at every occupancy, once: ``weights[e][n]`` is
``(n + 1) * length * T_move`` below capacity and infinity at it, computed in
the operation order of :func:`~repro.routing.weights.channel_weight`, so
costs are bit-identical to the reference.  A turn edge's table is
``(T_turn,)`` and its slot ``-1``, which reads the tracker's spare level,
always 0.  A relaxation reads ``weights[e][levels[slot]]`` straight from
the caller's tracker, so the graph keeps no state about any tracker and a
query never synchronises anything.  The tracker refuses a capacity above
:data:`~repro.technology.MAX_CHANNEL_CAPACITY`, which bounds each table's
length.  A full channel's infinite weight fails the frontier test, so the
search prunes it naturally.

**Frontier pruning.**  The kernel skips pushing any tentative distance that
is already at or above the cheapest completed route.  ``best_total`` only
ever decreases and all costs are non-negative, so such an entry could never
improve the answer; in the reference kernel it would only ever be popped
after the termination condition fired.  The pruning changes heap-pop counts,
never distances, origins or routes.

**Target-distance bound.**  The kernel also prunes against a
congestion-free lower bound.  For each target-node set it needs, the graph
runs one multi-source Dijkstra from the targets under the congestion-free
weights (per ``(T_move, T_turn)`` pair, memoised on the compiled graph).
That gives every node's exact congestion-free distance to the set and its
shortest-path-tree edge.  Dijkstra *from* the targets measures distances *to*
them because every compiled graph is weight-symmetric: it builds every
channel and turn edge in both directions with the same kind, length and
channel, so each edge's reverse twin also has the same weight under any
congestion (a test checks the symmetry for every registered fabric).  The
per-node heuristic ``h(v)`` is that distance plus the smallest completion
cost.  It is admissible because congestion only ever *raises* weights above
the congestion-free base, and consistent because it is an exact distance.

Before its first pop, :meth:`CompiledRoutingGraph.shortest_route` walks
each source's tree path under the *current* weights.  The smallest finite
total is the cost of a real route, so it bounds the optimum from above and
pruning starts at once.  The kernel keeps plain Dijkstra's pop order and
tie-breaking and uses ``h`` **only to discard entries**: an entry goes only
when ``candidate + h`` exceeds the bound by more than a relative slack of
``1e-9``.  Such an entry can only lead to completions worse than a known
route, and the completion update uses a strict ``<``, so dropping it changes
heap traffic, never the returned route.  The slack matters: a bound often
equals the optimum exactly, and the float sum ``candidate + h`` can round
above it, which a strict test would take for a worse route.

**Read sets.**  When ``read_out`` is given, the kernel records the channel
slot (:attr:`~repro.fabric.fabric.Fabric.channel_slots`) of every non-turn
edge leaving an *expanded* node: a popped node that the bound skips, or
that ends the loop, reads no edge weight.  The tree walks read weights too,
but only to pick a bound, and the answer does not depend on which valid
bound was picked.  Under any occupancy state that agrees on the recorded
channels, the same search with the same bound makes the same moves and
returns a route that costs what it did, so that bound is valid there too
and the answer is still the reference's.  A cached result therefore stays
byte-identical for as long as those channels' occupancies (plus the
caller's own attachment channels) are unchanged, which is the validity
rule of the router's route cache.

**No batched search.**  :meth:`shortest_routes_batch` answers one source
set against several target groups with one :meth:`shortest_route` call per
group.  No router calls it: every leg is a demand lookup, because batching
candidate legs into one frontier pass cost time on both library workloads
of the benchmark (``docs/PERFORMANCE.md`` §5).  It stays only because the
benchmark's tracer (``perfbench/qsprbench/tracer.py``) wraps it by name,
and the benchmark harness check fails when a wrapped name is missing.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping, NamedTuple, Sequence

from repro.fabric.components import Channel, JunctionId, TrapId
from repro.fabric.fabric import Fabric
from repro.fabric.geometry import Orientation
from repro.routing.congestion import CongestionTracker
from repro.technology import TechnologyParams

#: A routing-graph node: ``(junction_id, plane)``.  In the turn-oblivious
#: model the plane is always ``"*"``.
Node = tuple[JunctionId, str]

#: Plane labels.
HORIZONTAL_PLANE = "h"
VERTICAL_PLANE = "v"
ANY_PLANE = "*"

_INF = math.inf

#: A lower bound prunes only beyond ``bound * _PRUNE_SLACK``: the float sum
#: ``candidate + h`` can round above a bound that equals the optimum exactly.
_PRUNE_SLACK = 1.0 + 1e-9


class DijkstraResult(NamedTuple):
    """Result of a shortest-route query.

    Attributes:
        cost: Total cost including the virtual entry and completion costs.
        entry_node: The routing-graph node the route enters the graph at.
        exit_node: The routing-graph node the route leaves the graph at.
        edges: The ids of the traversed edges, in order (empty when the
            entry node is also the exit node).
    """

    cost: float
    entry_node: Node
    exit_node: Node
    edges: tuple[int, ...]


@dataclass
class RoutingCoreStats:
    """Counters of the routing core, exposed on results and reports.

    Attributes:
        dijkstra_calls: Shortest-route searches actually executed (route-cache
            hits do not reach the kernel).
        heap_pops: Heap extractions over all searches, including lazily
            deleted (stale) entries.
        edge_relaxations: Successful distance improvements over all searches.
        cache_hits: Route-table hits in :class:`~repro.routing.router.Router`.
        cache_misses: Route-table misses (each one runs the full planner).
    """

    dijkstra_calls: int = 0
    heap_pops: int = 0
    edge_relaxations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def route_queries(self) -> int:
        """Total trap-pair route queries answered (hits + misses)."""
        return self.cache_hits + self.cache_misses

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of route queries served from the cache (0.0 when idle)."""
        queries = self.route_queries
        return self.cache_hits / queries if queries else 0.0


class CompiledRoutingGraph:
    """The routing graph of a fabric, as CSR arrays, with a fast kernel.

    Built once per fabric and model (construction is O(junctions + channels
    + traps), see the module docstring) and shared by every query on that
    fabric.  The instance owns mutable scratch arrays, so it must not be
    shared across threads; sharing across sequential mapping runs is what it
    is for.  Queries are self-contained — the generation stamps reset the
    scratch arrays, and the weights come from static tables and the caller's
    tracker — so interleaved use by several routers on the same fabric is
    safe.

    Attributes:
        turn_aware: Whether this is the split-junction graph of Figure 5.c
            (``True``) or the turn-oblivious graph of Figure 5.b.
        edge_channel: Per edge id, the channel it traverses (``None`` on a
            turn edge).
        edge_junction: Per edge id, the junction a turn edge turns in
            (``None`` on a channel edge).
        edge_length: Per edge id, the channel's length in cells (0 on a
            turn edge).
        trap_attachments: Per trap id, its channel's endpoint nodes (a, then
            b), each with the channel cells between that junction and the
            trap.
    """

    @classmethod
    def shared(cls, fabric: Fabric, *, turn_aware: bool = True) -> "CompiledRoutingGraph":
        """The memoised graph of ``fabric`` under one model (fabrics are immutable).

        This is what "built once per fabric" means operationally: every
        router on the same fabric (MVFB constructs one per pass, a service
        worker one per job on its memoised fabric) reuses the same arrays.
        The memo lives on the fabric and points one way, since the graph
        keeps no reference to the fabric: reference counting frees the
        fabric and its graphs together when the fabric's last holder drops
        it, with no cycle left for the garbage collector.

        ``fabric`` may also be a reference
        :class:`~repro.routing.graph_model.RoutingGraph`, whose fabric and
        model are read; only the benchmark's set-up line passes one (see
        the module docstring).
        """
        if not isinstance(fabric, Fabric):
            fabric, turn_aware = fabric.fabric, fabric.turn_aware
        per_model = fabric.__dict__.setdefault("_compiled_routing_graphs", {})
        graph = per_model.get(turn_aware)
        if graph is None:
            graph = per_model[turn_aware] = cls(fabric, turn_aware=turn_aware)
        return graph

    def __init__(self, fabric: Fabric, *, turn_aware: bool = True) -> None:
        self.turn_aware = turn_aware
        if turn_aware:
            nodes = [
                (junction_id, plane)
                for junction_id in fabric.junctions
                for plane in (HORIZONTAL_PLANE, VERTICAL_PLANE)
            ]
        else:
            nodes = [(junction_id, ANY_PLANE) for junction_id in fabric.junctions]
        node_index = {node: i for i, node in enumerate(nodes)}
        self._nodes: list[Node] = nodes
        self._node_index: dict[Node, int] = node_index

        # Each node's outgoing edges as (target, slot, channel, junction,
        # length), in the order of the module docstring: the turn edge
        # first, then both directions of every channel in channel order.
        out: list[list[tuple]] = [[] for _ in nodes]
        if turn_aware:
            for h in range(0, len(nodes), 2):
                junction_id = nodes[h][0]
                out[h].append((h + 1, -1, None, junction_id, 0))
                out[h + 1].append((h, -1, None, junction_id, 0))
        slots = fabric.channel_slots
        # Channel id -> its endpoint nodes and length, for the attachments.
        ends: dict = {}
        for channel in fabric.channels.values():
            if not turn_aware:
                plane = ANY_PLANE
            elif channel.orientation is Orientation.HORIZONTAL:
                plane = HORIZONTAL_PLANE
            else:
                plane = VERTICAL_PLANE
            a = node_index[(channel.endpoint_a, plane)]
            b = node_index[(channel.endpoint_b, plane)]
            slot, length = slots[channel.id], channel.length
            ends[channel.id] = (nodes[a], nodes[b], length)
            out[a].append((b, slot, channel, None, length))
            out[b].append((a, slot, channel, None, length))

        # Number the edges row by row: transpose them into per-edge arrays,
        # and cut the (target, slot, edge id) triples into rows.
        targets, edge_slot, edge_channel, edge_junction, edge_length = (
            list(column) for column in zip(*[edge for row in out for edge in row])
        )
        offsets = list(accumulate(map(len, out), initial=0))
        spans = list(zip(offsets, offsets[1:]))
        triples = list(zip(targets, edge_slot, range(len(targets))))
        self._rows: list[list[tuple[int, int, int]]] = [
            triples[start:end] for start, end in spans
        ]
        self._edge_source = [i for i, row in enumerate(out) for _ in row]
        self._edge_slot: list[int] = edge_slot
        self.edge_channel: list[Channel | None] = edge_channel
        self.edge_junction: list[JunctionId | None] = edge_junction
        self.edge_length: list[int] = edge_length
        #: Slots of the channels whose occupancy a search *reads* when it
        #: expands a node: the channels of the node's outgoing non-turn edges
        #: (turn edges are congestion-independent, and a turn-aware row
        #: holds one, first).  The router snapshots their occupancies to
        #: validate cached plans exactly.
        first = 1 if turn_aware else 0
        self._node_slots: list[tuple[int, ...]] = [
            tuple(edge_slot[start + first:end]) for start, end in spans
        ]

        self.trap_attachments: dict[TrapId, tuple[tuple[Node, int], tuple[Node, int]]] = {}
        for trap in fabric.traps.values():
            node_a, node_b, length = ends[trap.channel_id]
            offset = trap.offset
            self.trap_attachments[trap.id] = ((node_a, offset), (node_b, length + 1 - offset))

        num_nodes = len(nodes)
        self._dist = [_INF] * num_nodes
        self._parent = [-1] * num_nodes
        self._origin = [-1] * num_nodes
        self._dist_gen = [0] * num_nodes
        self._visited_gen = [0] * num_nodes
        self._generation = 0

        #: ``(move_delay, turn_delay, capacity) -> weights``, filled on first
        #: use (see :meth:`_weights`).
        self._weight_tables: dict[tuple, list[tuple[float, ...]]] = {}
        #: ``(move_delay, turn_delay, target nodes) -> (distances, tree edges)``,
        #: filled on first use (see :meth:`_target_distances`).
        self._target_tables: dict[tuple, tuple[list[float], list[int]]] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of routing-graph nodes."""
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return len(self._edge_source)

    # ------------------------------------------------------------------
    # Weight tables
    # ------------------------------------------------------------------
    def _weights(
        self, move_delay: float, turn_delay: float, capacity: int
    ) -> list[tuple[float, ...]]:
        """Every edge's Eq. (2) weight at every occupancy.

        ``weights[e][n]`` is edge ``e``'s weight while its channel holds
        ``n`` qubits (see the module docstring); edges of one length share
        one table.  Built once per ``(T_move, T_turn, capacity)``.
        """
        key = (move_delay, turn_delay, capacity)
        weights = self._weight_tables.get(key)
        if weights is None:
            turn = (turn_delay,)
            by_length: dict[int, tuple[float, ...]] = {}
            weights = []
            for slot, length in zip(self._edge_slot, self.edge_length):
                if slot < 0:
                    weights.append(turn)
                    continue
                table = by_length.get(length)
                if table is None:
                    # ((n + 1) * length) is an exact integer, then one float
                    # multiply: weights.channel_weight's operation order.
                    table = by_length[length] = tuple(
                        (n + 1) * length * move_delay for n in range(capacity)
                    ) + (_INF,)
                weights.append(table)
            self._weight_tables[key] = weights
        return weights

    # ------------------------------------------------------------------
    # Congestion-free target distances
    # ------------------------------------------------------------------
    def _target_distances(
        self,
        target_nodes: tuple[int, ...],
        technology: TechnologyParams,
        weights: list[tuple[float, ...]],
    ) -> tuple[list[float], list[int]]:
        """Each node's congestion-free distance to ``target_nodes`` and tree edge.

        One multi-source Dijkstra from the targets over the occupancy-0
        entries of ``weights``, ``technology``'s table from :meth:`_weights`,
        memoised per ``(T_move, T_turn)`` pair and target set.  ``tree[v]``
        is the edge ``u -> v`` that reached ``v`` (``-1`` at a target or an
        unreachable node); by weight symmetry its reverse twin is ``v``'s
        first step of a shortest path to the set, at the same weight under
        any congestion.
        """
        key = (technology.move_delay, technology.turn_delay, target_nodes)
        entry = self._target_tables.get(key)
        if entry is None:
            dist = [_INF] * len(self._nodes)
            tree = [-1] * len(self._nodes)
            heap = []
            for t in target_nodes:
                dist[t] = 0.0
                heap.append((0.0, t))
            rows = self._rows
            pop = heapq.heappop
            push = heapq.heappush
            while heap:
                cost, node = pop(heap)
                if cost > dist[node]:
                    continue
                for t, _, e in rows[node]:
                    candidate = cost + weights[e][0]
                    if candidate < dist[t]:
                        dist[t] = candidate
                        tree[t] = e
                        push(heap, (candidate, t))
            entry = self._target_tables[key] = (dist, tree)
        return entry

    # ------------------------------------------------------------------
    # The kernel
    # ------------------------------------------------------------------
    def shortest_route(
        self,
        sources: Mapping[Node, float],
        targets: Mapping[Node, float],
        congestion: CongestionTracker,
        technology: TechnologyParams,
        *,
        stats: RoutingCoreStats | None = None,
        read_out: set | None = None,
    ) -> DijkstraResult | None:
        """Array-based equivalent of the object-graph reference kernel.

        All entry and completion costs must be non-negative (infinity marks a
        blocked attachment) — the standard Dijkstra precondition, which the
        frontier pruning additionally relies on.  Source and target nodes
        must belong to the compiled graph.

        Args:
            sources: Entry nodes mapped to virtual entry costs.
            targets: Exit nodes mapped to virtual completion costs.
            congestion: Current channel occupancy (weights follow Eq. 2).
            technology: Delay parameters (``T_move``, ``T_turn``).  Turn
                edges cost ``T_turn``; a turn-oblivious graph has none.
            stats: Optional counter sink; incremented in place.
            read_out: Optional output set receiving the slots of every channel
                whose occupancy the search *read* — the channels of non-turn
                edges out of expanded nodes.  Together with the caller's
                source/target attachment channels this is the exact input
                state of the answer: while those occupancies are unchanged,
                re-running the query returns a byte-identical answer.

        Returns:
            The cheapest :class:`DijkstraResult` — identical, route-for-route,
            to the reference kernel's answer — or ``None`` when no finite route
            exists.
        """
        node_index = self._node_index
        target_cost: dict[int, float] = {}
        for node, cost in targets.items():
            if math.isfinite(cost):
                target_cost[node_index[node]] = cost
        if not target_cost:
            return None
        weights = self._weights(
            technology.move_delay, technology.turn_delay, congestion.channel_capacity
        )
        levels = congestion.levels
        # The heuristic h(v) = h_dist[v] + h_floor: the exact congestion-free
        # distance to the target set plus the smallest completion cost.
        h_dist, tree = self._target_distances(
            tuple(sorted(target_cost)), technology, weights
        )
        h_floor = min(target_cost.values())

        self._generation += 1
        generation = self._generation
        dist = self._dist
        parent = self._parent
        origin = self._origin
        dist_gen = self._dist_gen
        visited_gen = self._visited_gen
        rows = self._rows
        edge_source = self._edge_source
        edge_slot = self._edge_slot

        heap: list[tuple[float, int, int]] = []
        counter = 0
        # The cost bound starts at the cheapest tree descent below, so the
        # search prunes from its first pop.
        prune_bound = _INF
        for node, cost in sources.items():
            if not math.isfinite(cost):
                continue
            i = node_index[node]
            if dist_gen[i] == generation and cost >= dist[i]:
                continue
            dist[i] = cost
            dist_gen[i] = generation
            origin[i] = i
            parent[i] = -1
            heapq.heappush(heap, (cost, counter, i))
            counter += 1
            # Descent bound: walk the source's tree path to the target set
            # under the current weights (each tree edge's reverse twin has its
            # weight).  A finite total is the cost of a real route.
            total = cost
            e = tree[i]
            while e >= 0:
                total += weights[e][levels[edge_slot[e]]]
                i = edge_source[e]
                e = tree[i]
            completion = target_cost.get(i)
            if completion is not None and total + completion < prune_bound:
                prune_bound = total + completion
        if not heap:
            return None

        best_total = _INF
        best_exit = -1
        prune_limit = prune_bound * _PRUNE_SLACK
        pops = 0
        relaxations = 0
        pop = heapq.heappop
        push = heapq.heappush
        track_read = read_out is not None
        expanded: list[int] = []

        while heap:
            cost, _, node = pop(heap)
            pops += 1
            if visited_gen[node] == generation or (
                dist_gen[node] == generation and cost > dist[node]
            ):
                continue
            visited_gen[node] = generation
            completion = target_cost.get(node)
            if completion is not None and cost + completion < best_total:
                best_total = cost + completion
                if best_total < prune_bound:
                    prune_bound = best_total
                    prune_limit = best_total * _PRUNE_SLACK
                best_exit = node
            # Once the cheapest settled node already exceeds the best complete
            # route, no better completion can exist.
            if cost >= best_total:
                break
            # Expansion skip: every push below would fail its own bound test
            # (h is consistent), so skip the adjacency walk at once.
            if cost + h_dist[node] + h_floor > prune_limit:
                continue
            if track_read:
                expanded.append(node)
            node_origin = origin[node]
            for t, slot, e in rows[node]:
                candidate = cost + weights[e][levels[slot]]
                # Frontier pruning (see module docstring); an infinite edge
                # weight lands here too, since inf >= best_total always.
                if candidate >= best_total:
                    continue
                if dist_gen[t] != generation or candidate < dist[t]:
                    # Bound prune: totals through ``t`` are at least
                    # ``candidate + h(t)``; beyond the known achievable bound
                    # (and its rounding slack) they can never win under the
                    # strict-< completion update.
                    if candidate + h_dist[t] + h_floor > prune_limit:
                        continue
                    dist[t] = candidate
                    dist_gen[t] = generation
                    origin[t] = node_origin
                    parent[t] = e
                    push(heap, (candidate, counter, t))
                    counter += 1
                    relaxations += 1

        if track_read:
            node_slots = self._node_slots
            for i in expanded:
                read_out.update(node_slots[i])
        if stats is not None:
            stats.dijkstra_calls += 1
            stats.heap_pops += pops
            stats.edge_relaxations += relaxations

        if best_exit < 0 or not math.isfinite(best_total):
            return None

        edges = []
        node = best_exit
        while True:
            e = parent[node]
            if e < 0:
                break
            edges.append(e)
            node = edge_source[e]
        edges.reverse()
        return DijkstraResult(
            best_total,
            self._nodes[origin[best_exit]],
            self._nodes[best_exit],
            tuple(edges),
        )

    def shortest_routes_batch(
        self,
        sources: Mapping[Node, float],
        target_groups: Sequence[Mapping[Node, float]],
        congestion: CongestionTracker,
        technology: TechnologyParams,
        *,
        stats: RoutingCoreStats | None = None,
        read_out: set | None = None,
    ) -> list[DijkstraResult | None]:
        """One :meth:`shortest_route` answer per target group, in order.

        No router calls this method; it stays only because the benchmark's
        tracer wraps it by name (see the module docstring).
        """
        return [
            self.shortest_route(
                sources,
                targets,
                congestion,
                technology,
                stats=stats,
                read_out=read_out,
            )
            for targets in target_groups
        ]

    def __repr__(self) -> str:
        return f"CompiledRoutingGraph(nodes={self.num_nodes}, edges={self.num_edges})"
