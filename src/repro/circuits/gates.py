"""Gate registry: names, arities and inverses.

The mapper does not simulate gate semantics; it only needs to know, for each
gate mnemonic, how many qubit operands it takes (to pick the right technology
delay and trap occupancy) and what its inverse gate is (to build the
uncompute dependency graph, UIDG, used by the MVFB placer).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CircuitError


@dataclass(frozen=True)
class GateSpec:
    """Static description of a gate mnemonic.

    Attributes:
        name: Canonical mnemonic (upper case, e.g. ``C-X``).
        arity: Number of qubit operands (1 or 2).
        inverse_name: Mnemonic of the inverse gate.  Self-inverse gates point
            at themselves.
        is_measurement: True for the measurement pseudo-gate.
        description: Human-readable description used in documentation and
            trace rendering.
    """

    name: str
    arity: int
    inverse_name: str
    is_measurement: bool = False
    description: str = ""


def _spec(
    name: str,
    arity: int,
    inverse: str | None = None,
    *,
    measurement: bool = False,
    description: str = "",
) -> GateSpec:
    return GateSpec(name, arity, inverse or name, measurement, description)


#: Canonical gate registry.  Controlled gates list the control first.
GATE_REGISTRY: dict[str, GateSpec] = {
    spec.name: spec
    for spec in [
        _spec("H", 1, description="Hadamard"),
        _spec("X", 1, description="Pauli-X"),
        _spec("Y", 1, description="Pauli-Y"),
        _spec("Z", 1, description="Pauli-Z"),
        _spec("S", 1, "SDAG", description="Phase gate sqrt(Z)"),
        _spec("SDAG", 1, "S", description="Inverse phase gate"),
        _spec("T", 1, "TDAG", description="pi/8 gate"),
        _spec("TDAG", 1, "T", description="Inverse pi/8 gate"),
        _spec("PREPARE", 1, description="State preparation to |0>"),
        _spec("C-X", 2, description="Controlled-X (CNOT)"),
        _spec("C-Y", 2, description="Controlled-Y"),
        _spec("C-Z", 2, description="Controlled-Z"),
        _spec("SWAP", 2, description="Swap two qubits"),
        _spec("MEASURE", 1, measurement=True, description="Computational-basis measurement"),
    ]
}

#: Accepted aliases, normalised to canonical mnemonics by :func:`get_gate`.
GATE_ALIASES: dict[str, str] = {
    "CNOT": "C-X",
    "CX": "C-X",
    "CY": "C-Y",
    "CZ": "C-Z",
    "S-DAG": "SDAG",
    "SD": "SDAG",
    "T-DAG": "TDAG",
    "TD": "TDAG",
    "MEAS": "MEASURE",
}


def canonical_name(name: str) -> str:
    """Return the canonical mnemonic for ``name`` (case-insensitive)."""
    upper = name.upper()
    return GATE_ALIASES.get(upper, upper)


def is_known_gate(name: str) -> bool:
    """Whether ``name`` (or one of its aliases) is in the registry."""
    return canonical_name(name) in GATE_REGISTRY


def get_gate(name: str) -> GateSpec:
    """Look up the :class:`GateSpec` for ``name``.

    Raises:
        CircuitError: If the mnemonic is unknown.
    """
    spec = GATE_REGISTRY.get(canonical_name(name))
    if spec is None:
        raise CircuitError(f"unknown gate mnemonic: {name!r}")
    return spec
