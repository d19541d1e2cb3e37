"""Quantum circuit object model and benchmark circuits.

The central class is :class:`QuantumCircuit`, an ordered list of
:class:`Instruction` objects over named :class:`Qubit` operands.  Gate
semantics (arity, inverses) live in the registry in :mod:`repro.circuits.gates`.
Benchmark generators:

* :mod:`repro.circuits.qecc` — the six QECC encoding circuits used by the
  paper's evaluation (Table 1 / Table 2).
* :mod:`repro.circuits.random_circuits` — random circuits for stress tests and
  property-based testing.
* :mod:`repro.circuits.builders` — convenience constructors (GHZ, QFT-like
  interaction patterns, ripple chains) used by examples and tests.
"""

from repro.circuits.gates import GateSpec, get_gate, GATE_REGISTRY
from repro.circuits.circuit import Instruction, QuantumCircuit, Qubit
from repro.circuits.builders import ghz_circuit, ripple_chain_circuit, qft_like_circuit
from repro.circuits.random_circuits import random_circuit

__all__ = [
    "GateSpec",
    "GATE_REGISTRY",
    "get_gate",
    "Qubit",
    "Instruction",
    "QuantumCircuit",
    "ghz_circuit",
    "ripple_chain_circuit",
    "qft_like_circuit",
    "random_circuit",
]
