"""The reference oracle: cache-less routing under an ungated event loop.

The simulator's speed comes from layers that must never change what it
computes: the compiled CSR kernel with landmark pruning and warm starts, the
snapshot-validated route table (one per fabric, with MRU lists per trap
pair and batched candidate prefill), and the wake-set gating of the event
loop.  The oracle removes every one of them:

* :class:`OracleRouter` plans every leg from scratch with the object-graph
  reference kernel :func:`repro.routing.dijkstra.shortest_route` under the
  Eq. (2) weights of :func:`repro.routing.weights.edge_weight`;
* :func:`oracle_mode` swaps it into the simulator and turns the wake-set
  gating off, so the real event loop polls at every event timestamp and
  retries every parked instruction.

Instruction-level planning (candidate meeting traps, serial or overlaid
legs) and the event semantics are the model under test and stay shared.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.routing.dijkstra import shortest_route
from repro.routing.path import expand_route, stationary_plan
from repro.routing.router import Router
from repro.routing.weights import edge_weight
from repro.sim import engine


class OracleRouter(Router):
    """A router that computes every leg fresh on the reference kernel.

    It never reads or writes the fabric's route table.
    """

    def plan_qubit_route(
        self, qubit, source_trap_id, target_trap_id, congestion, *, cut=None
    ):
        assert cut is None, "the oracle runs without wake sets, so no cut is asked for"
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

    def _prefill_candidate_routes(self, *args) -> None:
        """The oracle prefetches nothing."""


@contextlib.contextmanager
def oracle_mode():
    """Run every simulator created inside the block as the oracle."""
    original_init = engine._RunState.__init__

    def ungated_init(state, sim, initial_placement):
        original_init(state, sim, initial_placement)
        state.use_wake_sets = False

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "Router", OracleRouter)
        patch.setattr(engine._RunState, "__init__", ungated_init)
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
