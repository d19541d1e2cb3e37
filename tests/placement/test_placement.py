"""Tests for the placement data structures and the three placers."""

import pytest

from repro.errors import PlacementError
from repro.placement.base import Placement
from repro.placement.center import CenterPlacer, center_placement
from repro.placement.monte_carlo import MonteCarloPlacer
from repro.placement.mvfb import MvfbPlacer
from repro.qidg.graph import build_qidg
from repro.qidg.uidg import reverse_schedule
from repro.sim.engine import FabricSimulator
from repro.technology import PAPER_TECHNOLOGY


class TestPlacement:
    def test_sharing(self):
        placement = Placement({"a": 1, "b": 1, "c": 2})
        assert placement.trap_sharing() == {1: 2, 2: 1}
        assert sorted(qubit for qubit, trap in placement if trap == 1) == ["a", "b"]

    def test_iteration_pairs_qubits_with_traps(self):
        placement = Placement({"b": 4, "a": 1, "c": 4})
        assert list(placement) == [("b", 4), ("a", 1), ("c", 4)]
        assert (placement.qubits, placement.traps) == (["b", "a", "c"], [4, 1, 4])
        assert len(placement) == 3

    def test_as_dict_is_a_copy(self):
        placement = Placement({"a": 1})
        placement.as_dict()["a"] = 2
        assert placement == Placement({"a": 1})

    def test_equality_and_hash(self):
        assert Placement({"a": 1}) == Placement({"a": 1})
        assert hash(Placement({"a": 1})) == hash(Placement({"a": 1}))
        assert Placement({"a": 1}) != Placement({"a": 2})

    def test_validate_against_circuit(self, bell_circuit, small_fabric_4x4):
        Placement({"a": 0, "b": 1}).validate(bell_circuit, small_fabric_4x4)
        with pytest.raises(PlacementError):
            Placement({"a": 0}).validate(bell_circuit, small_fabric_4x4)
        with pytest.raises(PlacementError):
            Placement({"a": 0, "b": 1, "z": 2}).validate(bell_circuit, small_fabric_4x4)
        with pytest.raises(PlacementError):
            Placement({"a": 0, "b": 99999}).validate(bell_circuit, small_fabric_4x4)

    def test_validate_trap_sharing_limit(self, bell_circuit, small_fabric_4x4):
        shared = Placement({"a": 0, "b": 0})
        shared.validate(bell_circuit, small_fabric_4x4)  # two per trap is fine
        with pytest.raises(PlacementError):
            shared.validate(bell_circuit, small_fabric_4x4, max_per_trap=1)


class TestCenterPlacement:
    def test_each_qubit_gets_own_trap(self, paper_circuit, small_fabric_4x4):
        placement = center_placement(paper_circuit, small_fabric_4x4)
        assert len(set(placement.traps)) == paper_circuit.num_qubits

    def test_traps_are_the_most_central(self, paper_circuit, small_fabric_4x4):
        placement = center_placement(paper_circuit, small_fabric_4x4)
        central = [t.id for t in small_fabric_4x4.traps_near_center()[: paper_circuit.num_qubits]]
        assert set(placement.traps) == set(central)

    def test_custom_order(self, bell_circuit, small_fabric_4x4):
        forward = center_placement(bell_circuit, small_fabric_4x4, qubit_order=["a", "b"])
        swapped = center_placement(bell_circuit, small_fabric_4x4, qubit_order=["b", "a"])
        assert forward.as_dict()["a"] == swapped.as_dict()["b"]

    def test_order_must_be_permutation(self, bell_circuit, small_fabric_4x4):
        with pytest.raises(PlacementError):
            center_placement(bell_circuit, small_fabric_4x4, qubit_order=["a", "z"])

    def test_too_many_qubits(self, tiny_fabric):
        from repro.circuits.random_circuits import random_circuit

        big = random_circuit(tiny_fabric.num_traps + 1, 0)
        with pytest.raises(PlacementError):
            center_placement(big, tiny_fabric)

    def test_random_placement_is_center_permutation(self, paper_circuit, small_fabric_4x4):
        import random

        placer = CenterPlacer(small_fabric_4x4)
        placement = placer.random_placement(paper_circuit, random.Random(3))
        central = [t.id for t in small_fabric_4x4.traps_near_center()[: paper_circuit.num_qubits]]
        assert set(placement.traps) == set(central)


def _make_evaluators(circuit, fabric, calls=None):
    """Forward and backward evaluators that log ``(direction, latency)`` per call."""
    calls = [] if calls is None else calls
    qidg = build_qidg(circuit)
    forward_sim = FabricSimulator(circuit, fabric, PAPER_TECHNOLOGY, qidg=qidg)
    inverse = circuit.inverse()
    inverse_qidg = build_qidg(inverse)

    def forward(placement):
        outcome = forward_sim.run(placement)
        calls.append(("forward", outcome.latency))
        return outcome

    def backward(placement, schedule):
        order = reverse_schedule(schedule, circuit.num_instructions)
        sim = FabricSimulator(
            inverse, fabric, PAPER_TECHNOLOGY, forced_order=order, qidg=inverse_qidg
        )
        outcome = sim.run(placement)
        calls.append(("backward", outcome.latency))
        return outcome

    return forward, backward


class TestMonteCarloPlacer:
    def test_best_of_runs(self, paper_circuit, small_fabric_4x4):
        calls = []
        forward, _ = _make_evaluators(paper_circuit, small_fabric_4x4, calls)
        placer = MonteCarloPlacer(small_fabric_4x4, forward)
        result = placer.run(paper_circuit, 5, seed=1)
        assert result.placement_runs == len(calls) == 5
        assert result.latency == min(latency for _, latency in calls)
        assert result.direction == "forward"

    def test_deterministic_for_seed(self, paper_circuit, small_fabric_4x4):
        forward, _ = _make_evaluators(paper_circuit, small_fabric_4x4)
        placer = MonteCarloPlacer(small_fabric_4x4, forward)
        a = placer.run(paper_circuit, 3, seed=7)
        b = placer.run(paper_circuit, 3, seed=7)
        assert a.latency == b.latency

    def test_needs_positive_runs(self, paper_circuit, small_fabric_4x4):
        forward, _ = _make_evaluators(paper_circuit, small_fabric_4x4)
        with pytest.raises(PlacementError):
            MonteCarloPlacer(small_fabric_4x4, forward).run(paper_circuit, 0)


class TestMvfbPlacer:
    def test_runs_and_improves_or_matches_first_run(self, paper_circuit, small_fabric_4x4):
        calls = []
        forward, backward = _make_evaluators(paper_circuit, small_fabric_4x4, calls)
        placer = MvfbPlacer(small_fabric_4x4, forward, backward)
        result = placer.run(paper_circuit, 2, seed=0)
        assert result.placement_runs == len(calls)
        first_forward = calls[0][1]
        assert result.latency <= first_forward

    def test_directions_alternate(self, paper_circuit, small_fabric_4x4):
        calls = []
        forward, backward = _make_evaluators(paper_circuit, small_fabric_4x4, calls)
        MvfbPlacer(small_fabric_4x4, forward, backward).run(paper_circuit, 1, seed=0)
        directions = [direction for direction, _ in calls]
        assert len(directions) > 1
        assert directions == [("forward", "backward")[i % 2] for i in range(len(directions))]

    def test_patience_limits_runs_per_seed(self, paper_circuit, small_fabric_4x4):
        calls = []
        forward, backward = _make_evaluators(paper_circuit, small_fabric_4x4, calls)
        placer = MvfbPlacer(small_fabric_4x4, forward, backward, patience=1, max_runs_per_seed=10)
        result = placer.run(paper_circuit, 1, seed=0)
        assert result.placement_runs == len(calls) <= 10

    def test_best_direction_consistent(self, paper_circuit, small_fabric_4x4):
        calls = []
        forward, backward = _make_evaluators(paper_circuit, small_fabric_4x4, calls)
        result = MvfbPlacer(small_fabric_4x4, forward, backward).run(paper_circuit, 1, seed=0)
        best = min(latency for _, latency in calls)
        first_best = next(call for call in calls if call[1] == best)
        assert result.latency == best
        assert result.direction == first_best[0]

    def test_invalid_parameters(self, small_fabric_4x4):
        def dummy(*args):  # pragma: no cover - never called
            raise AssertionError

        with pytest.raises(PlacementError):
            MvfbPlacer(small_fabric_4x4, dummy, dummy, patience=0)
        with pytest.raises(PlacementError):
            MvfbPlacer(small_fabric_4x4, dummy, dummy, max_runs_per_seed=1)

    def test_needs_positive_seeds(self, paper_circuit, small_fabric_4x4):
        forward, backward = _make_evaluators(paper_circuit, small_fabric_4x4)
        with pytest.raises(PlacementError):
            MvfbPlacer(small_fabric_4x4, forward, backward).run(paper_circuit, 0)
