"""The QIDG analyses against a brute-force reference on random circuits.

The reference never reads the QIDG.  It rebuilds the dependence edges from
the circuit (each instruction depends on the closest earlier instruction
acting on each of its qubits), finds every instruction's dependents by
breadth-first search over those edges, and derives each analysis from its
definition.
"""

from collections import deque
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.random_circuits import random_circuit
from repro.qidg.analysis import alap_levels, descendant_counts, longest_path_to_sink
from repro.qidg.graph import build_qidg
from repro.technology import PAPER_TECHNOLOGY


@st.composite
def circuits_with_measurements(draw):
    """Random circuits as in the invariant properties, plus measurements."""
    num_qubits = draw(st.integers(min_value=2, max_value=8))
    num_gates = draw(st.integers(min_value=1, max_value=25))
    fraction = draw(st.sampled_from([0.3, 0.6, 0.9]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    gates = random_circuit(num_qubits, num_gates, two_qubit_fraction=fraction, seed=seed)
    names = [qubit.name for qubit in gates.qubits]
    measurements = draw(
        st.lists(st.tuples(st.integers(0, num_gates), st.sampled_from(names)), max_size=5)
    )
    circuit = QuantumCircuit()
    for qubit in gates.qubits:
        circuit.add_qubit(qubit.name, qubit.initial_value)
    for position, instruction in enumerate([*gates.instructions, None]):
        for at, name in measurements:
            if at == position:
                circuit.measure(name)
        if instruction is not None:
            circuit.append(instruction.gate.name, *instruction.qubit_names)
    return circuit


def reference_edges(circuit):
    """Successor sets: the closest earlier use of each operand qubit."""
    instructions = circuit.instructions
    successors = [set() for _ in instructions]
    for later in instructions:
        for name in later.qubit_names:
            earlier = [i for i in instructions[: later.index] if name in i.qubit_names]
            if earlier:
                successors[earlier[-1].index].add(later.index)
    return successors


def reference_dependents(successors):
    """Every instruction's transitive dependents, by breadth-first search."""
    dependents = []
    for start in range(len(successors)):
        seen: set[int] = set()
        frontier = deque(successors[start])
        while frontier:
            node = frontier.popleft()
            if node not in seen:
                seen.add(node)
                frontier.extend(successors[node])
        dependents.append(seen)
    return dependents


def reference_analyses(circuit):
    successors = reference_edges(circuit)
    delays = [
        PAPER_TECHNOLOGY.gate_delay(i.arity, is_measurement=i.is_measurement)
        for i in circuit.instructions
    ]

    @lru_cache(maxsize=None)
    def to_sink(node):
        return delays[node] + max((to_sink(s) for s in successors[node]), default=0.0)

    @lru_cache(maxsize=None)
    def height(node):
        return max((1 + height(s) for s in successors[node]), default=0)

    @lru_cache(maxsize=None)
    def depth(node):
        preds = [p for p in range(node) if node in successors[p]]
        return max((1 + depth(p) for p in preds), default=0)

    nodes = range(len(successors))
    deepest = max(depth(node) for node in nodes)
    return (
        reference_dependents(successors),
        {node: to_sink(node) for node in nodes},
        {node: deepest - height(node) for node in nodes},
        {node: depth(node) for node in nodes},
    )


@settings(max_examples=60, deadline=None)
@given(circuits_with_measurements(), st.randoms(use_true_random=False))
def test_analyses_match_the_reference(circuit, rng):
    qidg = build_qidg(circuit)
    dependents, to_sink, alap, depth = reference_analyses(circuit)

    assert descendant_counts(qidg) == {node: len(d) for node, d in enumerate(dependents)}
    assert longest_path_to_sink(qidg) == to_sink
    assert alap_levels(qidg) == alap

    # An order is valid exactly when no instruction precedes a dependent.
    order = list(range(len(qidg)))
    rng.shuffle(order)
    position = {node: i for i, node in enumerate(order)}
    valid = all(
        position[node] < position[dependent]
        for node, ds in enumerate(dependents)
        for dependent in ds
    )
    assert qidg.is_valid_order(order) == valid
    # Shallowest first, shuffled within a depth: always valid.
    assert qidg.is_valid_order(sorted(order, key=depth.__getitem__))
