"""Tests for the event-driven fabric simulator."""

import pytest

from repro.circuits.builders import ghz_circuit, qft_like_circuit
from repro.circuits.circuit import QuantumCircuit
from repro.errors import SimulationError
from repro.pipeline import SCHEDULERS
from repro.placement.base import Placement
from repro.placement.center import CenterPlacer
from repro.qidg.analysis import critical_path_latency
from repro.qidg.graph import build_qidg
from repro.qidg.uidg import reverse_schedule
from repro.routing.router import MeetingPoint, RoutingPolicy
from repro.scheduling.policies import SchedulingPolicy
from repro.sim.engine import FabricSimulator
from repro.sim.microcode import CommandKind
from repro.technology import PAPER_TECHNOLOGY


def _simulate(circuit, fabric, **kwargs):
    simulator = FabricSimulator(circuit, fabric, PAPER_TECHNOLOGY, **kwargs)
    placement = CenterPlacer(fabric).place(circuit)
    return simulator.run(placement)


class TestBasicExecution:
    def test_single_gate(self, small_fabric_4x4):
        circuit = QuantumCircuit()
        q = circuit.add_qubit("q", 0)
        circuit.h(q)
        outcome = _simulate(circuit, small_fabric_4x4)
        assert outcome.latency == pytest.approx(10.0)
        assert outcome.schedule == [0]

    def test_bell_pair(self, small_fabric_4x4, bell_circuit):
        outcome = _simulate(bell_circuit, small_fabric_4x4)
        # H (10) + routing (>0, operands start in different traps) + CX (100).
        assert outcome.latency >= 110.0
        assert outcome.schedule == [0, 1]
        assert outcome.records[1].routing_delay > 0

    def test_all_instructions_complete(self, small_fabric_4x4, paper_circuit):
        outcome = _simulate(paper_circuit, small_fabric_4x4)
        assert len(outcome.records) == paper_circuit.num_instructions
        assert all(r.finish_time <= outcome.latency for r in outcome.records.values())

    def test_latency_at_least_critical_path(self, small_fabric_4x4, paper_circuit):
        outcome = _simulate(paper_circuit, small_fabric_4x4)
        ideal = critical_path_latency(build_qidg(paper_circuit))
        assert outcome.latency >= ideal

    def test_schedule_is_topological(self, small_fabric_4x4, paper_circuit):
        outcome = _simulate(paper_circuit, small_fabric_4x4)
        qidg = build_qidg(paper_circuit)
        assert qidg.is_valid_order(outcome.schedule)

    def test_final_placement_valid(self, small_fabric_4x4, paper_circuit):
        outcome = _simulate(paper_circuit, small_fabric_4x4)
        outcome.final_placement.validate(paper_circuit, small_fabric_4x4)

    def test_eq1_consistency(self, small_fabric_4x4, paper_circuit):
        outcome = _simulate(paper_circuit, small_fabric_4x4)
        for record in outcome.records.values():
            assert record.finish_time == pytest.approx(
                record.issue_time + record.routing_delay + record.gate_delay
            )

    def test_trace_contains_gates_for_all_instructions(self, small_fabric_4x4, paper_circuit):
        outcome = _simulate(paper_circuit, small_fabric_4x4)
        gate_commands = [c for c in outcome.trace if c.kind is CommandKind.GATE]
        assert len(gate_commands) == paper_circuit.num_instructions

    def test_trace_makespan_equals_latency(self, small_fabric_4x4, paper_circuit):
        outcome = _simulate(paper_circuit, small_fabric_4x4)
        assert outcome.trace.makespan == pytest.approx(outcome.latency)

    def test_trace_moves_serial_operands_one_after_the_other(
        self, small_fabric_4x4, paper_circuit
    ):
        # Capacity-1 channels: both operands travel, but never at once.
        policy = RoutingPolicy(channel_capacity=1)
        outcome = _simulate(paper_circuit, small_fabric_4x4, routing_policy=policy)
        serial = [
            index
            for index, route in outcome.routes.items()
            if route.serial and all(plan.steps for plan in route.plans)
        ]
        assert serial
        for index in serial:
            movement = [
                c
                for c in outcome.trace
                if c.instruction_index == index and c.kind is not CommandKind.GATE
            ]
            first, second = (
                [c for c in movement if c.qubits == (plan.qubit,)]
                for plan in outcome.routes[index].plans
            )
            record = outcome.records[index]
            assert first[0].start == record.issue_time
            assert max(c.end for c in first) <= min(c.start for c in second)
            assert max(c.end for c in second) == pytest.approx(record.gate_start)

    def test_invalid_placement_rejected(self, small_fabric_4x4, bell_circuit):
        simulator = FabricSimulator(bell_circuit, small_fabric_4x4, PAPER_TECHNOLOGY)
        with pytest.raises(Exception):
            simulator.run(Placement({"a": 0}))


class TestSchedulingPolicies:
    def test_forced_order_respected(self, small_fabric_4x4, paper_circuit):
        qidg = build_qidg(paper_circuit)
        order = qidg.topological_order()
        outcome = _simulate(paper_circuit, small_fabric_4x4, forced_order=order)
        assert outcome.schedule == order

    def test_invalid_forced_order_rejected(self, small_fabric_4x4, paper_circuit):
        order = list(reversed(range(paper_circuit.num_instructions)))
        with pytest.raises(SimulationError):
            FabricSimulator(
                paper_circuit, small_fabric_4x4, PAPER_TECHNOLOGY, forced_order=order
            )

    def test_forced_order_never_computes_priorities(self, small_fabric_4x4, paper_circuit):
        class Unprioritised(SchedulingPolicy):
            name = "unprioritised"

            def priorities(self, qidg, technology=PAPER_TECHNOLOGY):
                raise AssertionError("a forced order reads no priorities")

        order = build_qidg(paper_circuit).topological_order()
        outcome = _simulate(
            paper_circuit, small_fabric_4x4, scheduler=Unprioritised(), forced_order=order
        )
        assert outcome.schedule == order

    def test_barrier_scheduling_is_slower_or_equal(self, small_fabric_4x4, paper_circuit):
        free = _simulate(paper_circuit, small_fabric_4x4)
        barriers = _simulate(paper_circuit, small_fabric_4x4, barrier_scheduling=True)
        assert barriers.latency >= free.latency

    def test_scheduling_policies_all_run(self, small_fabric_4x4, paper_circuit):
        for name in SCHEDULERS.names():
            outcome = _simulate(paper_circuit, small_fabric_4x4, scheduler=name)
            assert outcome.latency > 0

    def test_backward_pass_round_trip(self, small_fabric_4x4, paper_circuit):
        forward = _simulate(paper_circuit, small_fabric_4x4)
        inverse = paper_circuit.inverse()
        order = reverse_schedule(forward.schedule, paper_circuit.num_instructions)
        backward_sim = FabricSimulator(
            inverse, small_fabric_4x4, PAPER_TECHNOLOGY, forced_order=order
        )
        backward = backward_sim.run(forward.final_placement)
        assert backward.latency > 0
        backward.final_placement.validate(inverse, small_fabric_4x4)


class TestForwardEquivalent:
    def test_forward_pass_is_its_own_equivalent(self, small_fabric_4x4, paper_circuit):
        forward = _simulate(paper_circuit, small_fabric_4x4)
        assert forward.direction == "forward" and forward.placement_runs == 1
        assert forward.forward_equivalent() is forward

    def test_backward_pass_becomes_the_reverse_forward_execution(
        self, small_fabric_4x4, paper_circuit
    ):
        forward = _simulate(paper_circuit, small_fabric_4x4)
        n = paper_circuit.num_instructions
        backward = FabricSimulator(
            paper_circuit.inverse(), small_fabric_4x4, PAPER_TECHNOLOGY,
            forced_order=reverse_schedule(forward.schedule, n),
        ).run(forward.final_placement)
        backward.direction = "backward"

        equivalent = backward.forward_equivalent()
        assert equivalent.direction == "backward"
        assert equivalent.latency == backward.latency
        assert equivalent.schedule == reverse_schedule(backward.schedule, n)
        assert build_qidg(paper_circuit).is_valid_order(equivalent.schedule)
        assert equivalent.initial_placement == backward.final_placement
        assert equivalent.final_placement == backward.initial_placement
        assert equivalent.records is backward.records
        assert equivalent.trace.commands == backward.trace.reversed_trace().commands
        assert equivalent.trace.makespan == equivalent.latency


class TestRoutingPolicies:
    def test_legacy_policy_runs(self, small_fabric_4x4, paper_circuit):
        policy = RoutingPolicy(
            turn_aware=False,
            meeting_point=MeetingPoint.DESTINATION,
            channel_capacity=1,
            trap_candidates=1,
        )
        outcome = _simulate(paper_circuit, small_fabric_4x4, routing_policy=policy)
        assert outcome.latency > 0

    def test_capacity_one_dual_move_runs(self, small_fabric_4x4, paper_circuit):
        policy = RoutingPolicy(channel_capacity=1)
        outcome = _simulate(paper_circuit, small_fabric_4x4, routing_policy=policy)
        assert outcome.latency > 0

    def test_congested_workload_completes(self, small_fabric_4x4):
        circuit = qft_like_circuit(8)
        outcome = _simulate(circuit, small_fabric_4x4)
        assert len(outcome.records) == circuit.num_instructions

    def test_trap_capacity_never_exceeded(self, small_fabric_4x4):
        # Regression test: with destination-fixed meeting traps, qubits used
        # to pile up beyond the two-per-trap physical limit.
        circuit = qft_like_circuit(8)
        policy = RoutingPolicy(
            turn_aware=False,
            meeting_point=MeetingPoint.DESTINATION,
            channel_capacity=1,
            trap_candidates=1,
        )
        outcome = _simulate(circuit, small_fabric_4x4, routing_policy=policy)
        sharing = outcome.final_placement.trap_sharing()
        assert max(sharing.values()) <= 2

    def test_ghz_on_tiny_fabric(self, tiny_fabric):
        outcome = _simulate(ghz_circuit(4), tiny_fabric)
        assert len(outcome.records) == 4

    def test_moves_and_turns_accumulate(self, small_fabric_4x4, paper_circuit):
        outcome = _simulate(paper_circuit, small_fabric_4x4)
        assert outcome.total_moves == sum(r.moves for r in outcome.records.values())
        assert outcome.total_turns == sum(r.turns for r in outcome.records.values())
