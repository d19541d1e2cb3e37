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

* ``_adjacency[i]`` — the outgoing ``(weight, target node, edge index)``
  triples of node ``i`` (a pre-zipped CSR row; tuple unpacking beats indexed
  reads).  The *weight* member is the Eq. (2) weight of the edge under the
  **current** congestion, patched in place lazily (see below), so a
  relaxation needs no occupancy lookup and no multiplication at all;
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

**Weight synchronisation.**  Edge weights depend on channel occupancy, which
changes with every reservation.  The congestion tracker stamps each state
with an epoch, so a query first compares the tracker's epoch with the one
the adjacency weights were patched against; on mismatch it resets the
previously touched edges to their congestion-free weight and re-applies the
tracker's non-zero occupancies.  A sync therefore costs O(edges of occupied
channels), and a query under unchanged congestion costs O(1).  Fully
congested channels get an infinite weight, which the search prunes
naturally.

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
from dataclasses import dataclass, replace
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

    def snapshot(self) -> "RoutingCoreStats":
        """An independent copy (used to compute per-run deltas)."""
        return replace(self)

    def since(self, baseline: "RoutingCoreStats") -> "RoutingCoreStats":
        """The counter deltas accumulated since ``baseline`` was snapshot."""
        return RoutingCoreStats(
            dijkstra_calls=self.dijkstra_calls - baseline.dijkstra_calls,
            heap_pops=self.heap_pops - baseline.heap_pops,
            edge_relaxations=self.edge_relaxations - baseline.edge_relaxations,
            cache_hits=self.cache_hits - baseline.cache_hits,
            cache_misses=self.cache_misses - baseline.cache_misses,
        )


class CompiledRoutingGraph:
    """Integer-indexed CSR view of a :class:`RoutingGraph` with a fast kernel.

    Built once per fabric (construction is O(nodes + edges)) and shared by
    every query on that fabric.  The instance owns mutable scratch arrays, so
    it must not be shared across threads; sharing across sequential mapping
    runs is what it is for.  Queries are self-contained — the generation
    stamps and the epoch-checked weight sync make interleaved use by several
    routers on the same fabric safe.
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

        edge_source: list[int] = []
        edge_target: list[int] = []
        edge_length: list[int] = []
        edge_is_turn: list[bool] = []
        edge_row_pos: list[int] = []
        edges = []
        adjacency: list[list[tuple[float, int, int]]] = []
        slots = graph.fabric.channel_slots
        channel_edges: list[list[int]] = [[] for _ in slots]
        for i, node in enumerate(nodes):
            row: list[tuple[float, int, int]] = []
            for edge in graph.edges_from(node):
                e = len(edges)
                edge_source.append(i)
                edge_target.append(self._node_index[edge.target])
                edge_length.append(edge.length)
                edge_is_turn.append(edge.kind is EdgeKind.TURN)
                edge_row_pos.append(len(row))
                if edge.kind is not EdgeKind.TURN:
                    channel_edges[slots[edge.channel_id]].append(e)
                row.append((0.0, edge_target[e], e))
                edges.append(edge)
            adjacency.append(row)
        self._adjacency = adjacency
        self._edge_source = edge_source
        self._edge_target = edge_target
        self._edge_length = edge_length
        self._edge_is_turn = edge_is_turn
        self._edge_row_pos = edge_row_pos
        self._edges = edges
        self._channel_edges = channel_edges

        num_nodes = len(nodes)
        self._dist = [_INF] * num_nodes
        self._parent = [-1] * num_nodes
        self._origin = [-1] * num_nodes
        self._dist_gen = [0] * num_nodes
        self._visited_gen = [0] * num_nodes
        self._generation = 0

        node_channels: list[set] = [set() for _ in range(num_nodes)]
        for e in range(len(edges)):
            if not edge_is_turn[e]:
                node_channels[edge_source[e]].add(slots[edges[e].channel_id])
        #: Slots of the channels whose occupancy a search *reads* when it
        #: expands a node: the channels of the node's outgoing non-turn edges
        #: (turn edges are congestion-independent).  The router snapshots
        #: their occupancies to validate cached plans exactly.
        self._node_slots: list[tuple[int, ...]] = [tuple(s) for s in node_channels]
        #: ``(move_delay, turn_cost, target nodes) -> (distances, tree edges)``,
        #: filled on first use (see :meth:`_target_distances`).
        self._target_tables: dict[tuple, tuple[list[float], list[int]]] = {}
        # Congestion-dependent weights live inside the adjacency rows and are
        # patched lazily per epoch; ``_base_weight`` remembers each edge's
        # congestion-free weight for the reset half of a sync.
        self._base_weight: list[float] = [0.0] * len(edges)
        self._touched_edges: list[int] = []
        self._weight_move_delay: float | None = None
        self._weight_turn_cost: float | None = None
        self._weight_epoch = -1
        self._weight_tracker_id = -1

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

    @property
    def num_channels(self) -> int:
        """Number of distinct channels appearing on channel edges."""
        return sum(1 for edges in self._channel_edges if edges)

    # ------------------------------------------------------------------
    # Weight synchronisation
    # ------------------------------------------------------------------
    def _sync_weights(
        self, congestion: CongestionTracker, move_delay: float, turn_cost: float
    ) -> None:
        """Bring the in-row edge weights up to date with the tracker.

        A no-change epoch match is O(1); otherwise the cost is O(edges of
        previously and currently occupied channels).  A change of technology
        parameters (different ``T_move``/``T_turn``, or toggled turn-aware
        costing) triggers a full O(edges) rebuild.  Each write replaces edge
        ``e``'s ``(weight, target, e)`` triple in its source node's row.
        """
        adjacency = self._adjacency
        edge_source = self._edge_source
        edge_target = self._edge_target
        row_pos = self._edge_row_pos
        base = self._base_weight
        if (
            move_delay != self._weight_move_delay
            or turn_cost != self._weight_turn_cost
        ):
            lengths = self._edge_length
            is_turn = self._edge_is_turn
            for e in range(len(base)):
                # ``length * move_delay`` is exactly the reference Eq. (2)
                # value for an unoccupied channel: (0 + 1) * length * T_move.
                weight = base[e] = turn_cost if is_turn[e] else lengths[e] * move_delay
                adjacency[edge_source[e]][row_pos[e]] = (weight, edge_target[e], e)
            self._weight_move_delay = move_delay
            self._weight_turn_cost = turn_cost
            self._touched_edges.clear()
            self._weight_epoch = -1
        if (
            congestion.epoch == self._weight_epoch
            and id(congestion) == self._weight_tracker_id
        ):
            return
        touched = self._touched_edges
        for e in touched:
            adjacency[edge_source[e]][row_pos[e]] = (base[e], edge_target[e], e)
        touched.clear()
        lengths = self._edge_length
        channel_edges = self._channel_edges
        capacity = congestion.channel_capacity
        levels = congestion.levels
        for slot in congestion.occupied:
            count = levels[slot]
            for e in channel_edges[slot]:
                if count >= capacity:
                    weight = _INF
                else:
                    # Multiplication order matches the reference kernel
                    # exactly: ((n + 1) * length) is an exact integer, then
                    # one float multiply — bit-identical to
                    # weights.channel_weight.
                    weight = (count + 1) * lengths[e] * move_delay
                adjacency[edge_source[e]][row_pos[e]] = (weight, edge_target[e], e)
                touched.append(e)
        self._weight_epoch = congestion.epoch
        self._weight_tracker_id = id(congestion)

    # ------------------------------------------------------------------
    # Congestion-free target distances
    # ------------------------------------------------------------------
    def _target_distances(
        self, target_nodes: tuple[int, ...]
    ) -> tuple[list[float], list[int]]:
        """Each node's congestion-free distance to ``target_nodes`` and tree edge.

        One multi-source Dijkstra from the targets over the base weights of
        the last :meth:`_sync_weights`, memoised per weight key and target
        set.  ``tree[v]`` is the edge ``u -> v`` that reached ``v`` (``-1`` at
        a target or an unreachable node); by weight symmetry its reverse twin
        is ``v``'s first step of a shortest path to the set, at the same
        weight under any congestion.
        """
        key = (self._weight_move_delay, self._weight_turn_cost, target_nodes)
        entry = self._target_tables.get(key)
        if entry is None:
            dist = [_INF] * len(self._nodes)
            tree = [-1] * len(self._nodes)
            heap = []
            for t in target_nodes:
                dist[t] = 0.0
                heap.append((0.0, t))
            adjacency = self._adjacency
            base = self._base_weight
            pop = heapq.heappop
            push = heapq.heappush
            while heap:
                cost, node = pop(heap)
                if cost > dist[node]:
                    continue
                for _, t, e in adjacency[node]:
                    candidate = cost + base[e]
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
        turn_aware_costing: bool = True,
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
            technology: Delay parameters (``T_move``, ``T_turn``).
            turn_aware_costing: Whether turn edges cost ``T_turn`` during the
                search (QSPR) or are free (prior tools / ablation).
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
        turn_cost = technology.turn_delay if turn_aware_costing else 0.0
        self._sync_weights(congestion, technology.move_delay, turn_cost)

        target_cost: dict[int, float] = {}
        for node, cost in targets.items():
            if math.isfinite(cost):
                target_cost[node_index[node]] = cost
        if not target_cost:
            return None
        # The heuristic h(v) = h_dist[v] + h_floor: the exact congestion-free
        # distance to the target set plus the smallest completion cost.
        h_dist, tree = self._target_distances(tuple(sorted(target_cost)))
        h_floor = min(target_cost.values())

        self._generation += 1
        generation = self._generation
        dist = self._dist
        parent = self._parent
        origin = self._origin
        dist_gen = self._dist_gen
        visited_gen = self._visited_gen
        adjacency = self._adjacency
        edge_source = self._edge_source
        row_pos = self._edge_row_pos

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
                total += adjacency[edge_source[e]][row_pos[e]][0]
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
            for edge_cost, t, e in adjacency[node]:
                candidate = cost + edge_cost
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
        turn_aware_costing: bool = True,
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
                turn_aware_costing=turn_aware_costing,
                stats=stats,
                read_out=read_out,
            )
            for targets in target_groups
        ]

    def __repr__(self) -> str:
        return (
            f"CompiledRoutingGraph(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"channels={self.num_channels})"
        )
