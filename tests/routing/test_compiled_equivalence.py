"""Differential tests: the compiled Dijkstra kernel vs the legacy kernel.

The compiled core must be a pure speedup — every query, under every
congestion state the simulator can produce, must return the same cost and
the same edge sequence as the object-based reference kernel
:func:`reference_oracle.shortest_route`.

Two layers of coverage:

* direct kernel queries over enumerated trap pairs (a seeded sample on the
  paper's fabric) and hand-made congestion states (including fully blocked
  channels and unroutable pairs);
* full simulations of the fixture circuits on the fixture fabrics with a
  shim that routes every live query through *both* kernels and compares.

The graph built from the fabric is checked against the reference
:class:`~repro.routing.graph_model.RoutingGraph` (node order, rows, edges
and trap attachments), its weight tables against the reference weight
functions, and its congestion-free target-distance table against the
reference kernel, each on its own.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from reference_oracle import ReferenceGraph, reference_graph, shortest_route
from repro.circuits.qecc import qecc_encoder
from repro.fabric.builder import FabricSpec, build_fabric, linear_fabric, quale_fabric
from repro.pipeline.facade import map_circuit
from repro.pipeline.fabrics import FABRICS
from repro.placement.center import CenterPlacer
from repro.routing.compiled import CompiledRoutingGraph
from repro.routing.congestion import CongestionTracker
from repro.routing.graph_model import RoutingGraph
from repro.routing.router import Router, RoutingPolicy
from repro.routing.weights import channel_weight, edge_weight, turn_weight
from repro.sim.engine import FabricSimulator
from repro.technology import MAX_CHANNEL_CAPACITY, PAPER_TECHNOLOGY, TechnologyParams


def _legacy_query(router: Router, sources, targets, congestion):
    """The reference kernel's answer, with its edges as edge ids."""
    reference = reference_graph(router.fabric, router.policy.turn_aware)
    return reference.with_edge_ids(
        shortest_route(
            reference.graph,
            sources,
            targets,
            lambda edge: edge_weight(edge, congestion, router.technology),
        )
    )


def _compiled_query(router: Router, sources, targets, congestion):
    assert router.compiled is not None
    return router.compiled.shortest_route(sources, targets, congestion, router.technology)


def _assert_same_result(legacy, compiled, context: str) -> None:
    if legacy is None or compiled is None:
        assert legacy is None and compiled is None, context
        return
    assert compiled.cost == legacy.cost, context
    assert compiled.entry_node == legacy.entry_node, context
    assert compiled.exit_node == legacy.exit_node, context
    assert compiled.edges == legacy.edges, context


def _congestion_states(fabric, capacity):
    """Empty, partially congested and locally saturated occupancy states."""
    empty = CongestionTracker(fabric, capacity)
    partial = CongestionTracker(fabric, capacity)
    channels = sorted(fabric.channels)
    for channel_id in channels[:: max(1, len(channels) // 7)]:
        partial.reserve(channel_id)
    saturated = CongestionTracker(fabric, capacity)
    for channel_id in channels[: max(2, len(channels) // 3)]:
        for _ in range(capacity):
            saturated.reserve(channel_id)
    return {"empty": empty, "partial": partial, "saturated": saturated}


def _trap_pairs(fabric, sample: int | None, seed: str):
    """Every pair of traps on different channels, or a seeded sample of them."""
    traps = sorted(fabric.traps)

    def apart(source, target):
        return fabric.trap(source).channel_id != fabric.trap(target).channel_id

    if sample is None:
        return [(s, t) for s in traps for t in traps if apart(s, t)]
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < sample:
        source, target = rng.sample(traps, 2)
        if apart(source, target):
            pairs.append((source, target))
    return pairs


@pytest.mark.parametrize("turn_aware", [True, False])
@pytest.mark.parametrize(
    "fabric_factory, sample",
    [
        (
            lambda: build_fabric(
                FabricSpec(name="tiny", junction_rows=2, junction_cols=3, channel_length=2)
            ),
            None,
        ),
        (
            lambda: build_fabric(
                FabricSpec(name="small", junction_rows=4, junction_cols=4, channel_length=3)
            ),
            None,
        ),
        (linear_fabric, None),
        # The paper's fabric has 504 traps: a seeded 150 pairs per state.
        (quale_fabric, 150),
    ],
    ids=["tiny-2x3", "small-4x4", "linear", "quale"],
)
def test_kernels_agree_on_enumerated_trap_pairs(fabric_factory, sample, turn_aware):
    fabric = fabric_factory()
    policy = RoutingPolicy(turn_aware=turn_aware)
    router = Router(fabric, PAPER_TECHNOLOGY, policy)
    compared = 0
    for state_name, congestion in _congestion_states(
        fabric, policy.channel_capacity
    ).items():
        for source_id, target_id in _trap_pairs(fabric, sample, state_name):
            sources = router._attachment_costs(fabric.trap(source_id), congestion)
            targets = router._attachment_costs(fabric.trap(target_id), congestion)
            if not any(math.isfinite(c) for c in sources.values()) or not any(
                math.isfinite(c) for c in targets.values()
            ):
                continue
            context = f"{fabric.name} {state_name} {source_id}->{target_id}"
            _assert_same_result(
                _legacy_query(router, sources, targets, congestion),
                _compiled_query(router, sources, targets, congestion),
                context,
            )
            compared += 1
    assert compared > 0


@pytest.mark.parametrize("turn_aware", [True, False], ids=["turn-aware", "turn-blind"])
@pytest.mark.parametrize("fabric_name", FABRICS.names())
def test_the_fabric_built_graph_is_the_reference_graph(fabric_name, turn_aware):
    # Same graph, same order: the heap's push counter follows the node order
    # and each row's order, so any difference could change a route.  Edge
    # ids number the rows in node order, the numbering the oracle reads.
    fabric = FABRICS.get(fabric_name)()
    compiled = CompiledRoutingGraph(fabric, turn_aware=turn_aware)
    graph = RoutingGraph(fabric, turn_aware=turn_aware)
    slots = fabric.channel_slots
    assert compiled.turn_aware is turn_aware
    assert compiled._nodes == graph.nodes
    assert compiled._node_index == {node: i for i, node in enumerate(graph.nodes)}
    e = 0
    for i, node in enumerate(graph.nodes):
        edges = graph.edges_from(node)
        assert [(compiled._nodes[t], slot) for t, slot, _ in compiled._rows[i]] == [
            (edge.target, -1 if edge.is_turn else slots[edge.channel_id]) for edge in edges
        ]
        for (_, slot, edge_id), edge in zip(compiled._rows[i], edges):
            assert edge_id == e
            assert compiled._edge_source[e] == i
            assert compiled._edge_slot[e] == slot
            channel = compiled.edge_channel[e]
            assert (None if channel is None else channel.id) == edge.channel_id
            assert channel is None or channel is fabric.channel(edge.channel_id)
            assert compiled.edge_junction[e] == edge.junction_id
            assert compiled.edge_length[e] == edge.length
            e += 1
    assert e == compiled.num_edges == graph.num_edges
    assert compiled.trap_attachments == graph.trap_attachments
    assert list(compiled.trap_attachments) == list(graph.trap_attachments)


@pytest.mark.parametrize("turn_aware", [True, False], ids=["turn-aware", "turn-blind"])
@pytest.mark.parametrize("fabric_name", FABRICS.names())
def test_every_edge_has_a_reverse_twin_of_the_same_kind_and_length(fabric_name, turn_aware):
    # The kernel's target-distance table runs Dijkstra *from* the targets and
    # walks each tree edge backwards; both need every edge's reverse twin to
    # weigh the same under any congestion, and a weight is a function of the
    # kind, the length and the channel's occupancy.  The kernel assumes this
    # of every graph without checking it.
    compiled = CompiledRoutingGraph(FABRICS.get(fabric_name)(), turn_aware=turn_aware)
    edges = Counter(
        (i, t, slot, compiled.edge_length[e], compiled.edge_channel[e])
        for i, row in enumerate(compiled._rows)
        for t, slot, e in row
    )
    assert edges
    reverse = Counter(
        {
            (target, source, slot, length, channel): count
            for (source, target, slot, length, channel), count in edges.items()
        }
    )
    assert edges == reverse


@pytest.mark.parametrize("capacity", [1, 2])
@pytest.mark.parametrize(
    "technology",
    [PAPER_TECHNOLOGY, TechnologyParams(move_delay=0.3, turn_delay=2.7)],
    ids=["paper", "fractional"],
)
@pytest.mark.parametrize("turn_aware", [True, False], ids=["turn-aware", "turn-blind"])
@pytest.mark.parametrize("fabric_name", FABRICS.names())
def test_weight_tables_are_eq2_at_every_occupancy(
    fabric_name, turn_aware, technology, capacity
):
    # A relaxation reads ``weights[e][levels[slot]]``: entry n of a channel
    # edge's table must be the reference Eq. (2) weight at occupancy n, bit
    # for bit, through the full channel's infinity; a turn edge reads the
    # tracker's spare level, which is always 0.
    fabric = FABRICS.get(fabric_name)()
    compiled = CompiledRoutingGraph(fabric, turn_aware=turn_aware)
    weights = compiled._weights(technology.move_delay, technology.turn_delay, capacity)
    assert len(weights) == compiled.num_edges
    for e, channel in enumerate(compiled.edge_channel):
        if channel is None:
            assert compiled._edge_slot[e] == -1
            assert weights[e] == (turn_weight(technology),)
            continue
        assert weights[e] == tuple(
            channel_weight(n, compiled.edge_length[e], capacity, technology)
            for n in range(capacity + 1)
        )


def test_a_run_at_the_largest_capacity_builds_small_tables():
    # Entry points refuse a capacity above MAX_CHANNEL_CAPACITY, so a run at
    # that capacity is the largest table a graph ever holds: one tuple of
    # MAX_CHANNEL_CAPACITY + 1 weights per channel length, shared by the
    # edges of that length, and one turn tuple.
    fabric = FABRICS.get("small")()
    result = map_circuit(
        "[[5,1,3]]", fabric, placer="center", channel_capacity=MAX_CHANNEL_CAPACITY
    )
    assert result.latency > 0
    compiled = CompiledRoutingGraph.shared(fabric)
    key = (PAPER_TECHNOLOGY.move_delay, PAPER_TECHNOLOGY.turn_delay, MAX_CHANNEL_CAPACITY)
    assert list(compiled._weight_tables) == [key]
    tables = {id(table): table for table in compiled._weight_tables[key]}.values()
    lengths = {channel.length for channel in compiled.edge_channel if channel is not None}
    assert sorted(map(len, tables)) == [1] + [MAX_CHANNEL_CAPACITY + 1] * len(lengths)


def _target_sets(compiled, graph, rng):
    """The endpoint nodes of three sampled channels, and their union."""
    channels = rng.sample(sorted(graph.fabric.channels), 3)
    sets = [
        {compiled._node_index[node] for node in graph.channel_endpoints(channel)}
        for channel in channels
    ]
    return [tuple(sorted(nodes)) for nodes in sets + [set().union(*sets)]]


@pytest.mark.parametrize("turn_aware", [True, False], ids=["turn-aware", "turn-blind"])
@pytest.mark.parametrize("fabric_name", FABRICS.names())
def test_target_distances_are_exact_and_their_tree_reaches_a_target(fabric_name, turn_aware):
    # The kernel's lower bound and descent bound both come from this table:
    # ``dist`` must be the reference kernel's congestion-free distance to the
    # set, and the reverse twins of the tree edges a real path of that cost.
    fabric = FABRICS.get(fabric_name)()
    reference = ReferenceGraph(fabric, turn_aware)
    graph = reference.graph
    compiled = CompiledRoutingGraph(fabric, turn_aware=turn_aware)
    empty = CongestionTracker(fabric, 2)
    weights = compiled._weights(
        PAPER_TECHNOLOGY.move_delay, PAPER_TECHNOLOGY.turn_delay, empty.channel_capacity
    )

    def weight(edge):
        return edge_weight(edge, empty, PAPER_TECHNOLOGY)

    nodes = graph.nodes
    rng = random.Random(fabric_name)
    for target_nodes in _target_sets(compiled, graph, rng):
        dist, tree = compiled._target_distances(target_nodes, PAPER_TECHNOLOGY, weights)
        targets = {nodes[t]: 0.0 for t in target_nodes}
        for v in rng.sample(range(len(nodes)), min(40, len(nodes))):
            answer = shortest_route(graph, {nodes[v]: 0.0}, targets, weight)
            assert dist[v] == (math.inf if answer is None else answer.cost)
        for v in range(len(nodes)):
            if math.isinf(dist[v]):
                assert tree[v] == -1
                continue
            node, cost = v, 0.0
            while tree[node] >= 0:
                edge = reference.edges[tree[node]]
                assert edge.target == nodes[node]
                twin = next(
                    e
                    for e in graph.edges_from(nodes[node])
                    if (e.target, e.kind, e.channel_id)
                    == (edge.source, edge.kind, edge.channel_id)
                )
                cost += weight(twin)
                node = compiled._node_index[edge.source]
            assert node in target_nodes
            assert cost == dist[v]


def _set_occupancy(congestion, channel, level):
    while congestion.occupancy(channel) < level:
        congestion.reserve(channel)
    while congestion.occupancy(channel) > level:
        congestion.release(channel)


@pytest.mark.parametrize("turn_aware", [True, False], ids=["turn-aware", "turn-blind"])
def test_answers_depend_only_on_the_channels_the_search_read(turn_aware):
    # The route table serves an entry while the channels its search read
    # (plus the two endpoint channels) keep their occupancies.  So emptying
    # or filling any other channel must leave the reference answer as it was.
    fabric = build_fabric(
        FabricSpec(name="small", junction_rows=4, junction_cols=4, channel_length=3)
    )
    policy = RoutingPolicy(turn_aware=turn_aware)
    router = Router(fabric, PAPER_TECHNOLOGY, policy)
    congestion = _congestion_states(fabric, policy.channel_capacity)["partial"]
    slots = fabric.channel_slots
    unread_checked = 0
    for source_id, target_id in _trap_pairs(fabric, 25, f"reads-{turn_aware}"):
        source, target = fabric.trap(source_id), fabric.trap(target_id)
        reads = {slots[source.channel_id], slots[target.channel_id]}
        answer = router.compiled.shortest_route(
            router._attachment_costs(source, congestion),
            router._attachment_costs(target, congestion),
            congestion,
            PAPER_TECHNOLOGY,
            read_out=reads,
        )
        for channel in sorted(fabric.channels):
            if slots[channel] in reads:
                continue
            level = congestion.occupancy(channel)
            for changed in sorted({0, policy.channel_capacity} - {level}):
                _set_occupancy(congestion, channel, changed)
                reference = _legacy_query(
                    router,
                    router._attachment_costs(source, congestion),
                    router._attachment_costs(target, congestion),
                    congestion,
                )
                _set_occupancy(congestion, channel, level)
                _assert_same_result(
                    reference, answer, f"{source_id}->{target_id}, {channel} at {changed}"
                )
                unread_checked += 1
    assert unread_checked > 0


def test_compiled_routes_are_costed_edge_chains(small_fabric_4x4):
    """Each compiled answer is a connected edge chain from its entry node to
    its exit node whose cost is entry + Eq. (2) weights + completion."""
    fabric = small_fabric_4x4
    policy = RoutingPolicy()
    router = Router(fabric, PAPER_TECHNOLOGY, policy)
    reference = ReferenceGraph(fabric, policy.turn_aware)
    congestion = _congestion_states(fabric, policy.channel_capacity)["partial"]
    traps = sorted(fabric.traps)
    routed = 0
    for source_id in traps:
        source = fabric.trap(source_id)
        for target_id in traps:
            target = fabric.trap(target_id)
            if source.channel_id == target.channel_id:
                continue
            sources = router._attachment_costs(source, congestion)
            targets = router._attachment_costs(target, congestion)
            result = _compiled_query(router, sources, targets, congestion)
            if result is None:
                continue
            node = result.entry_node
            cost = sources[node]
            for e in result.edges:
                edge = reference.edges[e]
                assert edge.source == node
                cost += edge_weight(edge, congestion, PAPER_TECHNOLOGY)
                node = edge.target
            assert node == result.exit_node
            assert cost + targets[node] == result.cost
            routed += 1
    assert routed > 0


def test_a_batch_answers_each_group_as_its_own_search(small_fabric_4x4):
    # No router calls the batch method; it stays because the benchmark's
    # tracer wraps it by name, and must answer each group as one search.
    fabric = small_fabric_4x4
    policy = RoutingPolicy()
    router = Router(fabric, PAPER_TECHNOLOGY, policy)
    congestion = _congestion_states(fabric, policy.channel_capacity)["partial"]
    origin, *others = (fabric.trap(trap_id) for trap_id in sorted(fabric.traps))
    sources = router._attachment_costs(origin, congestion)
    groups = [
        router._attachment_costs(trap, congestion)
        for trap in others
        if trap.channel_id != origin.channel_id
    ]
    batched = router.compiled.shortest_routes_batch(
        sources, groups, congestion, PAPER_TECHNOLOGY
    )
    assert batched == [
        _compiled_query(router, sources, targets, congestion) for targets in groups
    ]


class _DifferentialShim:
    """Stands in for the compiled graph and cross-checks every live query."""

    def __init__(self, router: Router):
        self.router = router
        self.compiled = router.compiled
        self.queries = 0

    def __getattr__(self, name):
        # The router and expand_route read the graph's arrays through it.
        return getattr(self.compiled, name)

    def shortest_route(self, sources, targets, congestion, technology, **kwargs):
        compiled_result = self.compiled.shortest_route(
            sources, targets, congestion, technology, **kwargs
        )
        legacy_result = _legacy_query(self.router, dict(sources), dict(targets), congestion)
        self.queries += 1
        _assert_same_result(legacy_result, compiled_result, f"query {self.queries}")
        return compiled_result


@pytest.mark.parametrize("circuit_name", ["[[5,1,3]]", "[[7,1,3]]", "[[9,1,3]]"])
@pytest.mark.parametrize(
    "fabric_fixture", ["tiny_fabric", "small_fabric_4x4"]
)
def test_kernels_agree_during_full_simulations(circuit_name, fabric_fixture, request):
    """Every query of a real simulation gets the same answer from both cores."""
    fabric = request.getfixturevalue(fabric_fixture)
    circuit = qecc_encoder(circuit_name)
    if circuit.num_qubits > len(fabric.traps):
        pytest.skip("circuit does not fit this fabric")
    placement = CenterPlacer(fabric).place(circuit)
    sim = FabricSimulator(circuit, fabric)
    shim = _DifferentialShim(sim.router)
    sim.router.compiled = shim
    outcome = sim.run(placement)
    assert shim.queries > 0, "the simulation never reached the Dijkstra kernel"
    assert outcome.latency > 0
