"""The reference oracle: cache-less routing under an ungated event loop.

The simulator's speed comes from layers that must never change what it
computes: the compiled CSR kernel with its congestion-free target-distance
bounds (a per-node lower bound, and an upper bound from walking each
source's shortest-path tree), the snapshot-validated route table (one per
fabric, with MRU lists per trap pair), the instruction planner's
full-operand-channel check, and the wake-set gating of the event loop.
The oracle removes every one of them:

* :class:`OracleRouter` plans every leg from scratch with
  :func:`shortest_route` under the Eq. (2) weights of
  :func:`repro.routing.weights.edge_weight`.  That is the object-graph
  reference kernel, a plain multi-source, multi-target Dijkstra over
  :class:`~repro.routing.graph_model.RoutingGraph`, and the compiled
  kernel is also checked against it query by query.  Its attachment costs
  are derived per query from the trap's channel
  (:func:`reference_attachment_costs`), not read from the graph's
  precomputed trap attachments.  It tries every candidate meeting trap
  also when an operand's own channel is full, where the router fails an
  instruction before trying any;
* :func:`oracle_mode` swaps it into the simulator, derives the occupied
  meeting traps by a scan of every resting trap
  (:func:`reference_occupied_traps`) and ungates the one event loop at two
  seams: :meth:`~repro.scheduling.busy_queue.BusyQueue.needs_retry` always
  answers "retry", and every event batch reports a wake.  So the loop polls
  at every event timestamp and retries every parked instruction.

Instruction-level planning (serial or overlaid legs) and the event
semantics are the model under test and stay shared.  The order in which the
router tries meeting traps is checked plan by plan against
:func:`reference_meeting_candidates`, which ranks every trap by its own
sort (:func:`nearest_free_traps`, :func:`select_target_trap` and
:func:`median_point`, the paper's median rule).  :func:`channel_exit_times`
is the definition of when a moving qubit releases each channel.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import math
from typing import Callable, Iterable, Mapping

import pytest

from repro.fabric.components import Trap
from repro.fabric.geometry import Coord, distance_to_point
from repro.routing.compiled import DijkstraResult
from repro.routing.graph_model import GraphEdge, Node, RoutingGraph
from repro.routing.path import expand_route, stationary_plan
from repro.routing.router import MeetingPoint, Router, RoutingPolicy
from repro.routing.weights import edge_weight, partial_channel_weight
from repro.scheduling.busy_queue import BusyQueue
from repro.sim import engine
from repro.sim.events import EventQueue

#: Signature of the edge weight callback.
WeightFunction = Callable[[GraphEdge], float]


def shortest_route(
    graph: RoutingGraph,
    sources: Mapping[Node, float],
    targets: Mapping[Node, float],
    weight: WeightFunction,
) -> DijkstraResult | None:
    """Find the cheapest route from any source node to any target node.

    Routes start and end at trap sites part-way along a channel, so a query
    attaches *virtual* entry costs to the source channel's endpoint nodes
    and *virtual* completion costs to the target channel's endpoint nodes,
    then runs an ordinary Dijkstra over the static graph.

    Args:
        graph: The routing graph.
        sources: Entry nodes mapped to the cost of reaching them from the
            source trap (exit moves/turn plus partial channel traversal).
        targets: Exit nodes mapped to the cost of completing the route from
            them to the target trap.
        weight: Callback producing the weight of each edge; may return
            ``math.inf`` for unusable edges.

    Returns:
        The cheapest :class:`~repro.routing.compiled.DijkstraResult`, or
        ``None`` when every route has infinite cost (all entry/completion
        costs or all connecting paths are blocked by congestion).
    """
    finite_sources = {node: cost for node, cost in sources.items() if math.isfinite(cost)}
    finite_targets = {node: cost for node, cost in targets.items() if math.isfinite(cost)}
    if not finite_sources or not finite_targets:
        return None

    best: dict[Node, float] = {}
    origin: dict[Node, Node] = {}
    parent_edge: dict[Node, GraphEdge | None] = {}
    heap: list[tuple[float, int, Node]] = []
    counter = 0
    for node, cost in finite_sources.items():
        if cost < best.get(node, math.inf):
            best[node] = cost
            origin[node] = node
            parent_edge[node] = None
            heapq.heappush(heap, (cost, counter, node))
            counter += 1

    settled: set[Node] = set()
    best_total = math.inf
    best_exit: Node | None = None

    while heap:
        cost, _, node = heapq.heappop(heap)
        if node in settled or cost > best.get(node, math.inf):
            continue
        settled.add(node)
        completion = finite_targets.get(node)
        if completion is not None and cost + completion < best_total:
            best_total = cost + completion
            best_exit = node
        # Once the cheapest settled node already exceeds the best complete
        # route, no better completion can exist.
        if cost >= best_total:
            break
        for edge in graph.edges_from(node):
            edge_cost = weight(edge)
            if not math.isfinite(edge_cost):
                continue
            candidate = cost + edge_cost
            if candidate < best.get(edge.target, math.inf):
                best[edge.target] = candidate
                origin[edge.target] = origin[node]
                parent_edge[edge.target] = edge
                heapq.heappush(heap, (candidate, counter, edge.target))
                counter += 1

    if best_exit is None or not math.isfinite(best_total):
        return None

    edges: list[GraphEdge] = []
    node = best_exit
    while True:
        edge = parent_edge[node]
        if edge is None:
            break
        edges.append(edge)
        node = edge.source
    edges.reverse()
    return DijkstraResult(best_total, origin[best_exit], best_exit, tuple(edges))


def reference_attachment_costs(router, trap, congestion) -> dict[Node, float]:
    """Virtual costs from/to ``trap`` at its channel's endpoint nodes.

    Leaving or entering the trap costs one move and one turn; the channel
    cells between the trap and each endpoint cost Eq. (2) under the
    channel's occupancy.
    """
    channel = router.fabric.channel(trap.channel_id)
    occupancy = congestion.occupancy(channel.id)
    access = router.technology.move_delay + router.technology.turn_delay
    costs: dict[Node, float] = {}
    for endpoint_node in router.graph.channel_endpoints(channel.id):
        cells = channel.distance_from_endpoint(endpoint_node[0], trap.offset)
        travel = partial_channel_weight(
            occupancy, cells, congestion.channel_capacity, router.technology
        )
        costs[endpoint_node] = access + travel
    return costs


def reference_occupied_traps(state, instruction) -> set:
    """Traps the router must not pick as ``instruction``'s meeting trap.

    Every reserved trap, and every trap where a qubit other than the
    operands rests.
    """
    operand_names = set(instruction.qubit_names)
    occupied = set(state.reserved_traps)
    for trap, qubits in state.resting.items():
        if qubits - operand_names:
            occupied.add(trap)
    return occupied


def median_point(points: list[Coord]) -> tuple[float, float]:
    """Coordinate-wise median of a list of cell coordinates.

    The paper selects the target trap of a two-qubit operation near the
    median location of its operands in the X and Y directions; with two
    operands the median coincides with the midpoint.
    """
    if not points:
        raise ValueError("median_point requires at least one point")
    rows = sorted(p[0] for p in points)
    cols = sorted(p[1] for p in points)
    mid = len(points) // 2
    if len(points) % 2 == 1:
        return (float(rows[mid]), float(cols[mid]))
    return ((rows[mid - 1] + rows[mid]) / 2.0, (cols[mid - 1] + cols[mid]) / 2.0)


# Bounded memo: the plan-by-plan checks rank the same few points again and
# again, and a full sort per plan would dominate their runtime.
@functools.lru_cache(maxsize=256)
def _traps_by_distance(fabric, point: tuple[float, float]) -> tuple[Trap, ...]:
    return tuple(sorted(
        fabric.traps.values(), key=lambda trap: (distance_to_point(trap.cell, point), trap.id)
    ))


def nearest_free_traps(
    fabric, point: tuple[float, float], occupied: Iterable[int], count: int
) -> list[Trap]:
    """Up to ``count`` traps nearest ``point`` by (L1 distance, trap id),
    skipping ``occupied`` ones."""
    excluded = set(occupied)
    free = [trap for trap in _traps_by_distance(fabric, point) if trap.id not in excluded]
    return free[:count]


def select_target_trap(
    fabric, operand_traps: list[int], *, occupied: Iterable[int] = (), max_candidates: int = 1
) -> list[Trap]:
    """The paper's median rule: up to ``max_candidates`` free traps nearest
    the median of the operands' cells, nearest first."""
    cells = [fabric.trap(trap_id).cell for trap_id in operand_traps]
    return nearest_free_traps(fabric, median_point(cells), occupied, max_candidates)


def reference_meeting_candidates(
    fabric, policy: RoutingPolicy, source_trap: int, dest_trap: int, occupied: set
) -> list[int]:
    """The meeting traps a two-qubit plan tries, in the order it must try them.

    ``MEDIAN`` and ``CENTER`` take the ``trap_candidates`` free traps
    nearest their point (:func:`select_target_trap`; the fabric center),
    then the destination and the source operand's own trap, each if free
    and not listed yet.  ``DESTINATION`` takes the destination operand's
    trap alone when it is free, and otherwise the ``max(2,
    trap_candidates)`` free traps nearest it.  ``occupied`` holds the traps
    no meeting may use (:func:`reference_occupied_traps`).
    """
    count = policy.trap_candidates
    if policy.meeting_point is MeetingPoint.DESTINATION:
        if dest_trap not in occupied:
            return [dest_trap]
        point = fabric.trap(dest_trap).cell
        return [trap.id for trap in nearest_free_traps(fabric, point, occupied, max(2, count))]
    if policy.meeting_point is MeetingPoint.CENTER:
        ranked = nearest_free_traps(fabric, fabric.center, occupied, count)
    else:
        ranked = select_target_trap(
            fabric, [source_trap, dest_trap], occupied=occupied, max_candidates=count
        )
    order = [trap.id for trap in ranked]
    for trap_id in (dest_trap, source_trap):
        if trap_id not in occupied and trap_id not in order:
            order.append(trap_id)
    return order


def channel_exit_times(plan, start_time: float) -> list[tuple]:
    """When a qubit that starts moving at ``start_time`` exits each channel.

    ``(channel_id, exit_time)`` pairs in traversal order: each exit time is
    the plan's step durations summed left to right from ``start_time``.
    """
    exits = []
    clock = start_time
    for step in plan.steps:
        clock += step.duration
        if step.channel_id is not None:
            exits.append((step.channel_id, clock))
    return exits


class OracleRouter(Router):
    """A router that computes every leg fresh on the reference kernel.

    It never reads or writes the fabric's route table.
    """

    _attachment_costs = reference_attachment_costs

    def plan_qubit_route(self, qubit, source_trap_id, target_trap_id, congestion):
        if source_trap_id == target_trap_id:
            return stationary_plan(qubit, source_trap_id)
        source = self.fabric.trap(source_trap_id)
        target = self.fabric.trap(target_trap_id)
        if source.channel_id == target.channel_id:
            if congestion.is_full(source.channel_id):
                return None
            return expand_route(
                self.fabric, self.technology, qubit, source, target, None, ()
            )
        self.stats.dijkstra_calls += 1
        result = shortest_route(
            self.graph,
            self._attachment_costs(source, congestion),
            self._attachment_costs(target, congestion),
            lambda edge: edge_weight(
                edge,
                congestion,
                self.technology,
                turn_aware_costing=self.policy.turn_aware,
            ),
        )
        if result is None:
            return None
        return expand_route(
            self.fabric,
            self.technology,
            qubit,
            source,
            target,
            result.entry_node[0],
            result.edges,
        )

    def _full_operand_channels(self, *args) -> list:
        """The oracle scans every candidate meeting trap, even when an
        operand's channel is full."""
        return []


@contextlib.contextmanager
def oracle_mode():
    """Run every simulator created inside the block as the oracle."""
    apply_earliest = EventQueue.apply_earliest

    def always_woken(queue, apply):
        batch = apply_earliest(queue, apply)
        return None if batch is None else (*batch[:2], True)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "Router", OracleRouter)
        patch.setattr(engine._RunState, "_occupied_traps_for", reference_occupied_traps)
        patch.setattr(BusyQueue, "needs_retry", lambda queue, index: True)
        patch.setattr(EventQueue, "apply_earliest", always_woken)
        yield


def snapshot_pairs(entry, fabric) -> tuple:
    """A route-table entry's snapshot as sorted ``(channel id, occupancy)`` pairs.

    The entry stores an ``itemgetter`` over channel slots and the values it
    returned; this unpacks them into the channel-keyed form the reference
    check :func:`reads_match` reads.
    """
    slots = entry.getter.__reduce__()[1]
    values = entry.values if len(slots) > 1 else (entry.values,)
    channel_ids = list(fabric.channel_slots)
    return tuple(sorted((channel_ids[slot], value) for slot, value in zip(slots, values)))


def reads_match(pairs, congestion) -> bool:
    """The reference validity check of a route-table snapshot.

    Walks the ``(channel id, occupancy)`` pairs one channel at a time and
    asks the tracker for each current occupancy; the router's one-compare
    check must always give the same answer.
    """
    occupancy = congestion.occupancy
    for channel_id, occ in pairs:
        if occupancy(channel_id) != occ:
            return False
    return True


def assert_same_mapping(result, oracle) -> None:
    """``result`` computed exactly what the oracle computed.

    Works on both :class:`~repro.mapper.result.MappingResult` and
    :class:`~repro.sim.engine.SimulationOutcome`.
    """
    assert result.latency == oracle.latency
    assert result.schedule == oracle.schedule
    assert result.total_moves == oracle.total_moves
    assert result.total_turns == oracle.total_turns
    assert result.total_congestion_delay == oracle.total_congestion_delay
    assert result.final_placement.as_dict() == oracle.final_placement.as_dict()
