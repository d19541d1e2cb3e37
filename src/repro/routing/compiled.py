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

**Landmark pruning (ALT).**  The kernel additionally prunes against a
congestion-free lower bound: ~8 landmark nodes are chosen once per fabric by
farthest-point selection and the congestion-free distance from each
landmark to every node is precomputed
(per ``(T_move, T_turn)`` pair, memoised on the compiled graph).  For a
query the per-node heuristic ``h(v)`` is the largest landmark-interval
distance to the target set plus the smallest completion cost — admissible
because congestion only ever *raises* weights above the congestion-free
base, and consistent because each landmark term is 1-Lipschitz along edges.
The kernel keeps plain Dijkstra's pop order and tie-breaking and uses
``h`` **only to discard entries**, with a *strict* bound test
(``candidate + h > bound``): any such entry can only lead to completions
strictly worse than an already-known route, and the completion update uses
a strict ``<``, so dropping them provably changes heap traffic, never the
returned route.  ``cost_bound`` feeds the same test with an externally
known achievable cost (the router re-costs a stale cached plan under the
current congestion), so pruning starts before the first in-search
completion is found.  Landmarks require a weight-symmetric graph:
:class:`~repro.routing.graph_model.RoutingGraph` builds every channel and
turn edge in both directions with the same kind and length, so every
compiled graph is one (a test checks it for every registered fabric).

**Read sets.**  When ``read_out`` is given, the kernel records the channel
slot (:attr:`~repro.fabric.fabric.Fabric.channel_slots`) of every non-turn
edge leaving a settled node.  Those are exactly the weights the search
*read*, so a cached result stays byte-identical for as long as those
channels' occupancies (plus the caller's own attachment channels) are
unchanged — the validity rule of the router's route cache.

**Batched multi-target search.**  :meth:`shortest_routes_batch`
answers one source set against several target groups (the candidate
meeting traps of dual-operand planning) in a single kernel pass.  Each
group keeps its own ``best_total``/winner and *freezes* exactly where its
dedicated search would have terminated, while the shared frontier keeps
expanding for the groups still open; with strictly positive edge weights
(the only mode the router batches under) every per-group answer is
byte-identical to the dedicated query's.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from repro.routing.congestion import CongestionTracker
from repro.routing.graph_model import EdgeKind, GraphEdge, Node, RoutingGraph
from repro.technology import TechnologyParams

_INF = math.inf

#: Landmarks per fabric; 8 keeps the per-node bound tight on the paper's
#: fabrics while the per-node evaluation stays a short fixed-size loop.
NUM_LANDMARKS = 8


@dataclass(frozen=True)
class DijkstraResult:
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
        batched_searches: Multi-target batch passes
            (:meth:`CompiledRoutingGraph.shortest_routes_batch` calls); each
            counts once in ``dijkstra_calls`` but answers several trap-pair
            queries.
    """

    dijkstra_calls: int = 0
    heap_pops: int = 0
    edge_relaxations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    batched_searches: int = 0

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
            batched_searches=self.batched_searches - baseline.batched_searches,
        )


class _LandmarkTable:
    """Congestion-free landmark distances of one ``(T_move, T_turn)`` pair.

    ``node_dists[v]`` is the tuple of distances from each landmark to node
    ``v`` (transposed for cache-friendly per-node reads in the heuristic).

    ``interval_cache`` memoises, per target-node set, the full per-node
    vector of the heuristic's landmark-interval term
    ``max_L interval_dist(D_L[v], [lo_L, hi_L])``.  Landmark distances are
    congestion-free, so the vector depends only on *which* nodes are
    targets — not on their completion costs — and searches towards the
    same channel endpoints (the overwhelmingly common case: every trap
    pair on the same channels shares them) reuse it for the lifetime of
    the graph.  This turns the per-pop heuristic into one list index.
    """

    __slots__ = ("node_dists", "interval_cache")

    def __init__(self, node_dists: list[tuple[float, ...]]) -> None:
        self.node_dists = node_dists
        self.interval_cache: dict[tuple[int, ...], list[float]] = {}

    def interval_vector(self, target_nodes: tuple[int, ...]) -> list[float]:
        """The memoised per-node interval term for one target-node set."""
        vec = self.interval_cache.get(target_nodes)
        if vec is None:
            node_dists = self.node_dists
            bounds = [
                (min(column), max(column))
                for column in zip(*(node_dists[t] for t in target_nodes))
            ]
            vec = []
            append = vec.append
            for dists in node_dists:
                h = 0.0
                for d, (lo, hi) in zip(dists, bounds):
                    if d < lo:
                        if lo - d > h:
                            h = lo - d
                    elif d > hi and d - hi > h:
                        h = d - hi
                append(h)
            self.interval_cache[target_nodes] = vec
        return vec


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
        #: settles a node: the channels of the node's outgoing non-turn edges
        #: (turn edges are congestion-independent).  The router snapshots
        #: their occupancies to validate cached plans exactly.
        self._node_slots: list[tuple[int, ...]] = [tuple(s) for s in node_channels]
        #: GraphEdge identity -> edge index, for re-costing cached routes.
        self._edge_lookup = {id(edge): e for e, edge in enumerate(edges)}
        #: ``(move_delay, turn_cost) -> _LandmarkTable``, built on first use.
        self._landmark_tables: dict[tuple[float, float], _LandmarkTable] = {}
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
    def _set_edge_weight(self, e: int, weight: float) -> None:
        """Patch the weight member of edge ``e``'s adjacency-row triple."""
        row = self._adjacency[self._edge_source[e]]
        position = self._edge_row_pos[e]
        row[position] = (weight, self._edge_target[e], e)

    def _sync_weights(
        self, congestion: CongestionTracker, move_delay: float, turn_cost: float
    ) -> None:
        """Bring the in-row edge weights up to date with the tracker.

        A no-change epoch match is O(1); otherwise the cost is O(edges of
        previously and currently occupied channels).  A change of technology
        parameters (different ``T_move``/``T_turn``, or toggled turn-aware
        costing) triggers a full O(edges) rebuild.
        """
        if (
            move_delay != self._weight_move_delay
            or turn_cost != self._weight_turn_cost
        ):
            base = self._base_weight
            lengths = self._edge_length
            is_turn = self._edge_is_turn
            for e in range(len(base)):
                # ``length * move_delay`` is exactly the reference Eq. (2)
                # value for an unoccupied channel: (0 + 1) * length * T_move.
                base[e] = turn_cost if is_turn[e] else lengths[e] * move_delay
                self._set_edge_weight(e, base[e])
            self._weight_move_delay = move_delay
            self._weight_turn_cost = turn_cost
            self._touched_edges.clear()
            self._weight_epoch = -1
        if (
            congestion.epoch == self._weight_epoch
            and id(congestion) == self._weight_tracker_id
        ):
            return
        base = self._base_weight
        for e in self._touched_edges:
            self._set_edge_weight(e, base[e])
        self._touched_edges.clear()
        touched = self._touched_edges
        lengths = self._edge_length
        channel_edges = self._channel_edges
        capacity = congestion.channel_capacity
        levels = congestion.levels
        for slot in congestion.occupied:
            count = levels[slot]
            for e in channel_edges[slot]:
                if count >= capacity:
                    self._set_edge_weight(e, _INF)
                else:
                    # Multiplication order matches the reference kernel
                    # exactly: ((n + 1) * length) is an exact integer, then
                    # one float multiply — bit-identical to
                    # weights.channel_weight.
                    self._set_edge_weight(e, (count + 1) * lengths[e] * move_delay)
                touched.append(e)
        self._weight_epoch = congestion.epoch
        self._weight_tracker_id = id(congestion)

    # ------------------------------------------------------------------
    # Landmarks (ALT)
    # ------------------------------------------------------------------
    def _congestion_free_dijkstra(
        self, start: int, weights: list[float]
    ) -> list[float]:
        """Distances from ``start`` to every node under congestion-free weights."""
        dist = [_INF] * self.num_nodes
        dist[start] = 0.0
        heap = [(0.0, start)]
        adjacency = self._adjacency
        pop = heapq.heappop
        push = heapq.heappush
        while heap:
            cost, node = pop(heap)
            if cost > dist[node]:
                continue
            for _, t, e in adjacency[node]:
                candidate = cost + weights[e]
                if candidate < dist[t]:
                    dist[t] = candidate
                    push(heap, (candidate, t))
        return dist

    def _get_landmarks(self, move_delay: float, turn_cost: float) -> _LandmarkTable:
        """The landmark table of one technology key, built on first use."""
        key = (move_delay, turn_cost)
        table = self._landmark_tables.get(key)
        if table is None:
            table = self._landmark_tables[key] = self._build_landmarks(
                move_delay, turn_cost
            )
        return table

    def _build_landmarks(self, move_delay: float, turn_cost: float) -> _LandmarkTable:
        """Farthest-point landmark selection + one Dijkstra per landmark."""
        num_nodes = self.num_nodes
        lengths = self._edge_length
        is_turn = self._edge_is_turn
        weights = [
            turn_cost if is_turn[e] else lengths[e] * move_delay
            for e in range(len(self._edges))
        ]
        # Farthest-point selection: seed with the node farthest from node 0,
        # then repeatedly add the node farthest from the chosen set.
        seed = self._congestion_free_dijkstra(0, weights)
        first = max(
            (i for i in range(num_nodes) if math.isfinite(seed[i])),
            key=seed.__getitem__,
            default=0,
        )
        landmark_dists: list[list[float]] = []
        chosen: set[int] = set()
        current = first
        min_dist = [_INF] * num_nodes
        for _ in range(min(NUM_LANDMARKS, num_nodes)):
            chosen.add(current)
            dists = self._congestion_free_dijkstra(current, weights)
            landmark_dists.append(dists)
            for i in range(num_nodes):
                if dists[i] < min_dist[i]:
                    min_dist[i] = dists[i]
            candidates = [
                i
                for i in range(num_nodes)
                if i not in chosen and math.isfinite(min_dist[i])
            ]
            if not candidates:
                break
            current = max(candidates, key=min_dist.__getitem__)
            if min_dist[current] <= 0.0:
                break
        node_dists = [
            tuple(dists[v] for dists in landmark_dists) for v in range(num_nodes)
        ]
        return _LandmarkTable(node_dists)

    def recost_route(
        self,
        result: DijkstraResult,
        sources: Mapping[Node, float],
        targets: Mapping[Node, float],
        congestion: CongestionTracker,
        technology: TechnologyParams,
        *,
        turn_aware_costing: bool = True,
    ) -> float:
        """Cost of re-walking ``result``'s route under the current congestion.

        Returns ``inf`` when the old route is no longer traversable (a full
        channel on it) or its endpoints' attachment costs went infinite.
        The value is the total of an *achievable* route, so it is always an
        upper bound on the current optimum — a valid ``cost_bound`` warm
        start for :meth:`shortest_route` on the same query.
        """
        turn_cost = technology.turn_delay if turn_aware_costing else 0.0
        self._sync_weights(congestion, technology.move_delay, turn_cost)
        total = sources.get(result.entry_node, _INF)
        if not math.isfinite(total):
            return _INF
        edge_lookup = self._edge_lookup
        adjacency = self._adjacency
        edge_source = self._edge_source
        edge_row_pos = self._edge_row_pos
        for edge in result.edges:
            e = edge_lookup.get(id(edge))
            if e is None:
                return _INF
            total += adjacency[edge_source[e]][edge_row_pos[e]][0]
            if not math.isfinite(total):
                return _INF
        return total + targets.get(result.exit_node, _INF)

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
        blocked_channels: set | None = None,
        read_out: set | None = None,
        cost_bound: float = _INF,
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
            blocked_channels: Optional output set.  When the search fails it
                receives the ids of the full channels on the search frontier —
                the *blocking cut*.  A route can only come into existence when
                one of those channels frees a slot: every other full channel
                lies beyond the cut (unreachable either way), and releases of
                non-full channels only change costs, never connectivity.
            read_out: Optional output set receiving the slots of every channel
                whose occupancy the search *read* — the channels of non-turn
                edges out of settled nodes.  Together with the caller's
                source/target attachment channels this is the exact input
                state of the search: while those occupancies are unchanged,
                re-running it returns a byte-identical answer.
            cost_bound: A known-achievable route total (default ``inf``);
                entries that provably cannot beat it are pruned from the
                start.  Must be an upper bound on the optimum — the router
                derives it by re-costing a stale cached plan.

        Returns:
            The cheapest :class:`DijkstraResult` — identical, route-for-route,
            to the reference kernel's answer — or ``None`` when no finite route
            exists.
        """
        node_index = self._node_index
        turn_cost = technology.turn_delay if turn_aware_costing else 0.0
        self._sync_weights(congestion, technology.move_delay, turn_cost)

        self._generation += 1
        generation = self._generation
        dist = self._dist
        parent = self._parent
        origin = self._origin
        dist_gen = self._dist_gen
        visited_gen = self._visited_gen

        heap: list[tuple[float, int, int]] = []
        counter = 0
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
        if not heap:
            return None

        target_cost: dict[int, float] = {}
        for node, cost in targets.items():
            if math.isfinite(cost):
                target_cost[node_index[node]] = cost
        if not target_cost:
            return None

        # ALT setup: the per-node heuristic is the largest landmark-interval
        # distance to the target set plus the smallest completion cost.  The
        # interval form (one [lo, hi] per landmark over all target nodes)
        # needs no per-target loop and stays admissible and consistent; the
        # interval term is congestion-free and memoised per target-node set,
        # so inside the loop ``h(v)`` is one list index plus one add.
        h_table = self._get_landmarks(technology.move_delay, turn_cost)
        h_int = h_table.interval_vector(tuple(sorted(target_cost)))
        h_floor = min(target_cost.values())

        adjacency = self._adjacency
        best_total = _INF
        best_exit = -1
        prune_bound = cost_bound
        pops = 0
        relaxations = 0
        pop = heapq.heappop
        push = heapq.heappush
        track_cut = blocked_channels is not None
        track_read = read_out is not None
        track_settled = track_cut or track_read
        settled: list[int] = []

        while heap:
            cost, _, node = pop(heap)
            pops += 1
            if visited_gen[node] == generation or (
                dist_gen[node] == generation and cost > dist[node]
            ):
                continue
            visited_gen[node] = generation
            if track_settled:
                settled.append(node)
            completion = target_cost.get(node)
            if completion is not None and cost + completion < best_total:
                best_total = cost + completion
                if best_total < prune_bound:
                    prune_bound = best_total
                best_exit = node
            # Once the cheapest settled node already exceeds the best complete
            # route, no better completion can exist.
            if cost >= best_total:
                break
            node_origin = origin[node]
            # Expansion skip: every push below would fail its own bound test
            # (h is consistent), so skip the adjacency walk at once.
            if cost + h_int[node] + h_floor > prune_bound:
                continue
            for edge_cost, t, e in adjacency[node]:
                candidate = cost + edge_cost
                # Frontier pruning (see module docstring); an infinite edge
                # weight lands here too, since inf >= best_total always.
                if candidate >= best_total:
                    continue
                if dist_gen[t] != generation or candidate < dist[t]:
                    # Strict-bound landmark prune: totals through ``t`` are at
                    # least ``candidate + h(t)``; beyond the known achievable
                    # bound they can never win under the strict-< completion
                    # update.
                    if candidate + h_int[t] + h_floor > prune_bound:
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
            for i in settled:
                read_out.update(node_slots[i])
        if stats is not None:
            stats.dijkstra_calls += 1
            stats.heap_pops += pops
            stats.edge_relaxations += relaxations

        if best_exit < 0 or not math.isfinite(best_total):
            if track_cut:
                # The search exhausted the reachable component: every full
                # channel incident to a settled node is part of the cut that
                # separates the sources from the targets.
                edge_objects = self._edges
                is_turn = self._edge_is_turn
                for i in settled:
                    for weight, _, e in adjacency[i]:
                        if weight == _INF and not is_turn[e]:
                            blocked_channels.add(edge_objects[e].channel_id)
            return None

        edge_objects = self._edges
        edge_source = self._edge_source
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
        """Answer one source set against several target groups in one pass.

        Equivalent to calling :meth:`shortest_route` once per group with the
        same ``sources`` — the return value is byte-identical per group —
        but the shared frontier is expanded once instead of once per group.
        Each group keeps its own running best completion (strict-``<``
        updates, exactly as the dedicated search) and *freezes* at the first
        settle at or above it, which is precisely where its dedicated search
        would have terminated; the loop ends when every group is frozen.

        Byte-identity of the per-group winners and parent chains relies on
        strictly positive edge weights (relaxers settle strictly before the
        nodes they relax, pinning every parent pointer before any freeze),
        so callers must not batch when ``T_turn`` is zero and turn edges
        exist; the router enforces this.  Failure groups (no finite route)
        report ``None`` but carry no blocking-cut information — the caller
        re-runs those as dedicated cut-tracked queries.
        """
        node_index = self._node_index
        turn_cost = technology.turn_delay if turn_aware_costing else 0.0
        self._sync_weights(congestion, technology.move_delay, turn_cost)

        self._generation += 1
        generation = self._generation
        dist = self._dist
        parent = self._parent
        origin = self._origin
        dist_gen = self._dist_gen
        visited_gen = self._visited_gen

        heap: list[tuple[float, int, int]] = []
        counter = 0
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

        num_groups = len(target_groups)
        results: list[DijkstraResult | None] = [None] * num_groups
        if not heap:
            return results

        # node -> [(group, completion), ...] over every group's finite targets.
        group_targets: dict[int, list[tuple[int, float]]] = {}
        alive = []
        for g, targets in enumerate(target_groups):
            finite = False
            for node, cost in targets.items():
                if math.isfinite(cost):
                    group_targets.setdefault(node_index[node], []).append((g, cost))
                    finite = True
            if finite:
                alive.append(g)
        if not group_targets:
            return results

        h_table = self._get_landmarks(technology.move_delay, turn_cost)
        h_int = h_table.interval_vector(tuple(sorted(group_targets)))
        h_floor = min(cost for pairs in group_targets.values() for _, cost in pairs)

        adjacency = self._adjacency
        best_total = [_INF] * num_groups
        best_exit = [-1] * num_groups
        frozen = [g not in alive for g in range(num_groups)]
        open_groups = len(alive)
        # The shared prune bound: entries at or above every open group's best
        # completion can improve none of them (same argument as the single
        # search, applied group-wise with the loosest open bound).
        bound_max = _INF
        pops = 0
        relaxations = 0
        pop = heapq.heappop
        push = heapq.heappush
        track_read = read_out is not None
        settled: list[int] = []

        while heap and open_groups:
            cost, _, node = pop(heap)
            pops += 1
            if visited_gen[node] == generation or (
                dist_gen[node] == generation and cost > dist[node]
            ):
                continue
            visited_gen[node] = generation
            if track_read:
                settled.append(node)
            hits = group_targets.get(node)
            recompute_bound = False
            if hits is not None:
                for g, completion in hits:
                    if not frozen[g] and cost + completion < best_total[g]:
                        best_total[g] = cost + completion
                        best_exit[g] = node
                        recompute_bound = True
            # A settle at or above a group's best completion is exactly where
            # that group's dedicated search would have broken out.
            for g in alive:
                if not frozen[g] and cost >= best_total[g]:
                    frozen[g] = True
                    open_groups -= 1
                    recompute_bound = True
            if not open_groups:
                break
            if recompute_bound:
                bound_max = max(
                    best_total[g] for g in alive if not frozen[g]
                )
            node_origin = origin[node]
            if cost + h_int[node] + h_floor > bound_max:
                continue
            for edge_cost, t, e in adjacency[node]:
                candidate = cost + edge_cost
                if candidate >= bound_max:
                    continue
                if dist_gen[t] != generation or candidate < dist[t]:
                    if candidate + h_int[t] + h_floor > bound_max:
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
            for i in settled:
                read_out.update(node_slots[i])
        if stats is not None:
            stats.dijkstra_calls += 1
            stats.batched_searches += 1
            stats.heap_pops += pops
            stats.edge_relaxations += relaxations

        edge_objects = self._edges
        edge_source = self._edge_source
        for g in alive:
            exit_node = best_exit[g]
            if exit_node < 0 or not math.isfinite(best_total[g]):
                continue
            edges = []
            node = exit_node
            while True:
                e = parent[node]
                if e < 0:
                    break
                edges.append(edge_objects[e])
                node = edge_source[e]
            edges.reverse()
            results[g] = DijkstraResult(
                best_total[g],
                self._nodes[origin[exit_node]],
                self._nodes[exit_node],
                tuple(edges),
            )
        return results

    def __repr__(self) -> str:
        return (
            f"CompiledRoutingGraph(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"channels={self.num_channels})"
        )
