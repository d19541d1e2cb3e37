"""The compiled routing core: CSR arrays and an array-based Dijkstra kernel.

:class:`~repro.routing.graph_model.RoutingGraph` is a dict-of-dataclasses
adjacency structure — convenient to build and reason about, but every Dijkstra
relaxation pays tuple hashing (nodes are ``(junction_id, plane)`` tuples),
attribute access on :class:`~repro.routing.graph_model.GraphEdge` and a chain
of Python function calls through the weight callback.  Since the simulator
re-plans operand journeys for every issued instruction and every candidate
meeting trap, that search is the inner loop of the whole reproduction.

:class:`CompiledRoutingGraph` flattens the graph once per fabric into
integer-indexed arrays:

* ``_rows[i]`` — the outgoing ``(target node, channel slot, edge index)``
  triples of node ``i`` (a pre-zipped CSR row; tuple unpacking beats indexed
  reads).  The slot is the edge channel's index into the congestion
  tracker's ``levels``, and ``-1`` for a turn edge;
* ``_edge_slot`` — the same slot per edge, for the descent walk below;
* ``_edges`` / ``_edge_source`` — the original
  :class:`~repro.routing.graph_model.GraphEdge` objects and their source
  node indices, for mapping a found path back to the object world the rest
  of the router speaks.

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
them because every compiled graph is weight-symmetric:
:class:`~repro.routing.graph_model.RoutingGraph` builds every channel and
turn edge in both directions with the same kind, length and channel, so
each edge's reverse twin also has the same weight under any congestion (a
test checks the symmetry for every registered fabric).  The per-node
heuristic ``h(v)`` is that distance plus the smallest completion cost.  It
is admissible because congestion only ever *raises* weights above the
congestion-free base, and consistent because it is an exact distance.

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
from typing import Mapping, NamedTuple, Sequence

from repro.routing.congestion import CongestionTracker
from repro.routing.graph_model import EdgeKind, GraphEdge, Node, RoutingGraph
from repro.technology import TechnologyParams

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
        edges: The traversed edges, in order (empty when the entry node is
            also the exit node).
    """

    cost: float
    entry_node: Node
    exit_node: Node
    edges: tuple[GraphEdge, ...]


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
    """Integer-indexed CSR view of a :class:`RoutingGraph` with a fast kernel.

    Built once per fabric (construction is O(nodes + edges)) and shared by
    every query on that fabric.  The instance owns mutable scratch arrays, so
    it must not be shared across threads; sharing across sequential mapping
    runs is what it is for.  Queries are self-contained — the generation
    stamps reset the scratch arrays, and the weights come from static tables
    and the caller's tracker — so interleaved use by several routers on the
    same fabric is safe.
    """

    @classmethod
    def shared(cls, graph: RoutingGraph) -> "CompiledRoutingGraph":
        """The memoised compiled view of ``graph`` (graphs are static).

        This is what "built once per fabric" means operationally: every
        router on the same fabric (MVFB constructs one per pass) reuses the
        same flattened arrays.  The memo lives on the graph instance itself
        (a graph↔twin cycle the garbage collector reclaims as a unit), so it
        dies with the graph.
        """
        compiled = graph.__dict__.get("_compiled_twin")
        if compiled is None:
            compiled = cls(graph)
            graph._compiled_twin = compiled  # type: ignore[attr-defined]
        return compiled

    def __init__(self, graph: RoutingGraph) -> None:
        self.graph = graph
        nodes = graph.nodes
        self._nodes: list[Node] = nodes
        self._node_index: dict[Node, int] = {node: i for i, node in enumerate(nodes)}

        slots = graph.fabric.channel_slots
        edge_source: list[int] = []
        edge_slot: list[int] = []
        edges = []
        rows: list[list[tuple[int, int, int]]] = []
        for i, node in enumerate(nodes):
            row: list[tuple[int, int, int]] = []
            for edge in graph.edges_from(node):
                slot = -1 if edge.kind is EdgeKind.TURN else slots[edge.channel_id]
                row.append((self._node_index[edge.target], slot, len(edges)))
                edge_source.append(i)
                edge_slot.append(slot)
                edges.append(edge)
            rows.append(row)
        self._rows = rows
        self._edge_source = edge_source
        self._edge_slot = edge_slot
        self._edges = edges

        num_nodes = len(nodes)
        self._dist = [_INF] * num_nodes
        self._parent = [-1] * num_nodes
        self._origin = [-1] * num_nodes
        self._dist_gen = [0] * num_nodes
        self._visited_gen = [0] * num_nodes
        self._generation = 0

        #: Slots of the channels whose occupancy a search *reads* when it
        #: expands a node: the channels of the node's outgoing non-turn edges
        #: (turn edges are congestion-independent).  The router snapshots
        #: their occupancies to validate cached plans exactly.
        self._node_slots: list[tuple[int, ...]] = [
            tuple({slot for _, slot, _ in row if slot >= 0}) for row in rows
        ]
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
        return len(self._edges)

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
            for edge in self._edges:
                if edge.kind is EdgeKind.TURN:
                    weights.append(turn)
                    continue
                length = edge.length
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

        edge_objects = self._edges
        edges = []
        node = best_exit
        while True:
            e = parent[node]
            if e < 0:
                break
            edges.append(edge_objects[e])
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
