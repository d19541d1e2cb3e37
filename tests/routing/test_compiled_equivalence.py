"""Differential tests: the compiled Dijkstra kernel vs the legacy kernel.

The compiled core must be a pure speedup — every query, under every
congestion state the simulator can produce, must return the same cost and
the same edge sequence as the object-based reference kernel
:func:`reference_oracle.shortest_route`.

Two layers of coverage:

* direct kernel queries over enumerated trap pairs and hand-made congestion
  states (including fully blocked channels and unroutable pairs);
* full simulations of the fixture circuits on the fixture fabrics with a
  shim that routes every live query through *both* kernels and compares.
"""

from __future__ import annotations

import math

import pytest

from reference_oracle import shortest_route
from repro.circuits.qecc import qecc_encoder
from repro.fabric.builder import FabricSpec, build_fabric, linear_fabric
from repro.placement.center import CenterPlacer
from repro.routing.compiled import CompiledRoutingGraph
from repro.routing.congestion import CongestionTracker
from repro.routing.router import Router, RoutingPolicy
from repro.routing.weights import edge_weight
from repro.sim.engine import FabricSimulator
from repro.technology import PAPER_TECHNOLOGY


def _legacy_query(router: Router, sources, targets, congestion):
    return shortest_route(
        router.graph,
        sources,
        targets,
        lambda edge: edge_weight(
            edge,
            congestion,
            router.technology,
            turn_aware_costing=router.policy.turn_aware,
        ),
    )


def _compiled_query(router: Router, sources, targets, congestion):
    assert router.compiled is not None
    return router.compiled.shortest_route(
        sources,
        targets,
        congestion,
        router.technology,
        turn_aware_costing=router.policy.turn_aware,
    )


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


@pytest.mark.parametrize("turn_aware", [True, False])
@pytest.mark.parametrize(
    "fabric_factory",
    [
        lambda: build_fabric(
            FabricSpec(name="tiny", junction_rows=2, junction_cols=3, channel_length=2)
        ),
        lambda: build_fabric(
            FabricSpec(name="small", junction_rows=4, junction_cols=4, channel_length=3)
        ),
        lambda: linear_fabric(),
    ],
    ids=["tiny-2x3", "small-4x4", "linear"],
)
def test_kernels_agree_on_enumerated_trap_pairs(fabric_factory, turn_aware):
    fabric = fabric_factory()
    policy = RoutingPolicy(turn_aware=turn_aware)
    router = Router(fabric, PAPER_TECHNOLOGY, policy)
    traps = sorted(fabric.traps)
    for state_name, congestion in _congestion_states(
        fabric, policy.channel_capacity
    ).items():
        for source_id in traps:
            source = fabric.trap(source_id)
            for target_id in traps:
                target = fabric.trap(target_id)
                if source_id == target_id or source.channel_id == target.channel_id:
                    continue
                sources = router._attachment_costs(source, congestion)
                targets = router._attachment_costs(target, congestion)
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


def test_compiled_routes_are_costed_edge_chains(small_fabric_4x4):
    """Each compiled answer is a connected edge chain from its entry node to
    its exit node whose cost is entry + Eq. (2) weights + completion."""
    fabric = small_fabric_4x4
    policy = RoutingPolicy()
    router = Router(fabric, PAPER_TECHNOLOGY, policy)
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
            for edge in result.edges:
                assert edge.source == node
                cost += edge_weight(edge, congestion, PAPER_TECHNOLOGY)
                node = edge.target
            assert node == result.exit_node
            assert cost + targets[node] == result.cost
            routed += 1
    assert routed > 0


class _DifferentialShim:
    """Stands in for the compiled graph and cross-checks every live query."""

    def __init__(self, router: Router):
        self.router = router
        self.compiled = router.compiled
        self.queries = 0

    def shortest_route(self, sources, targets, congestion, technology, **kwargs):
        compiled_result = self.compiled.shortest_route(
            sources, targets, congestion, technology, **kwargs
        )
        legacy_result = _legacy_query(self.router, dict(sources), dict(targets), congestion)
        self.queries += 1
        _assert_same_result(legacy_result, compiled_result, f"query {self.queries}")
        return compiled_result

    def shortest_routes_batch(self, sources, groups, congestion, technology, **kwargs):
        results = self.compiled.shortest_routes_batch(
            sources, groups, congestion, technology, **kwargs
        )
        for targets, batched in zip(groups, results):
            legacy_result = _legacy_query(
                self.router, dict(sources), dict(targets), congestion
            )
            self.queries += 1
            _assert_same_result(legacy_result, batched, f"batched query {self.queries}")
        return results

    def recost_route(self, *args, **kwargs):
        # Warm-start bound probes are pure reads; forward them unchecked (the
        # bounded search result is still cross-checked above).
        return self.compiled.recost_route(*args, **kwargs)


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
