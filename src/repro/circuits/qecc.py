"""QECC encoding-circuit benchmark suite.

The paper evaluates the mapper on six encoding circuits for cyclic quantum
error-correcting codes taken from Grassl's (no longer available) circuit
collection: ``[[5,1,3]]``, ``[[7,1,3]]``, ``[[9,1,3]]``, ``[[14,8,3]]``,
``[[19,1,7]]`` and ``[[23,1,7]]``.  Only the ``[[5,1,3]]`` circuit is printed
in the paper (Figure 3); the others are *reconstructed* here.

Reconstruction method
---------------------
Each benchmark is generated by :func:`calibrated_encoder`, which produces a
stabilizer-encoder-shaped circuit (Hadamards on the ancilla qubits followed by
layers of controlled Pauli gates) whose QIDG critical path — and therefore
its *ideal-baseline* execution latency under the paper's technology
parameters — matches the baseline value reported in the paper's Table 2.
This preserves the property the evaluation depends on: the relative size,
parallelism profile and routing pressure of the six circuits.  Absolute gate
counts differ from the (unavailable) originals; the substitution is recorded
in ``DESIGN.md``.

The exact circuit of Figure 3 is available as
:func:`five_one_three_paper_circuit` and is used by the quickstart example
and the QASM tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.circuit import QuantumCircuit
from repro.errors import CircuitError

#: The paper's Figure 3 QASM program, reproduced verbatim (instruction 16 is
#: absent from the paper's listing as well).
FIVE_ONE_THREE_QASM = """\
# [[5,1,3]] encoding circuit for the cyclic QECC (paper Figure 3)
QUBIT q0,0
QUBIT q1,0
QUBIT q2,0
QUBIT q3
QUBIT q4,0
H q0
H q1
H q2
H q4
C-X q3,q2
C-Z q4,q2
C-Y q2,q1
C-Y q3,q1
C-X q4,q1
C-Z q2,q0
C-Y q3,q0
C-Z q4,q0
"""

#: Controlled-Pauli mnemonics cycled through by the reconstruction, giving the
#: circuits the mixed C-X / C-Y / C-Z flavour of cyclic-code encoders.
_PAULI_CYCLE = ("C-X", "C-Z", "C-Y")


@dataclass(frozen=True)
class QeccBenchmark:
    """Metadata of one benchmark circuit of the paper's evaluation.

    Attributes:
        name: Code label, e.g. ``"[[5,1,3]]"``.
        n: Number of physical qubits.
        k: Number of logical (data) qubits.
        d: Code distance.
        chain_length: Number of two-qubit gates on the reconstruction's
            critical dependency chain.
        leading_hadamard: Whether that chain starts with a Hadamard (adds one
            single-qubit gate delay to the ideal baseline).
        layer_width: Number of concurrent two-qubit gates per dependency layer
            in the reconstruction.
        paper_baseline_us: Ideal-baseline latency reported in Table 2 (µs).
        paper_quale_us: QUALE latency reported in Table 2 (µs).
        paper_qspr_us: QSPR latency reported in Table 2 (µs).
        paper_improvement_pct: QSPR improvement over QUALE from Table 2 (%).
    """

    name: str
    n: int
    k: int
    d: int
    chain_length: int
    leading_hadamard: bool
    layer_width: int
    paper_baseline_us: float
    paper_quale_us: float
    paper_qspr_us: float
    paper_improvement_pct: float

    @property
    def num_ancillas(self) -> int:
        """Number of ancilla qubits (initialised to 0 and Hadamard'ed)."""
        return self.n - self.k


#: The six benchmarks of Tables 1 and 2, with the paper's reported numbers.
QECC_BENCHMARKS: dict[str, QeccBenchmark] = {
    bench.name: bench
    for bench in [
        QeccBenchmark("[[5,1,3]]", 5, 1, 3, 5, True, 2, 510, 832, 634, 23.80),
        QeccBenchmark("[[7,1,3]]", 7, 1, 3, 5, True, 3, 510, 798, 610, 23.56),
        QeccBenchmark("[[9,1,3]]", 9, 1, 3, 9, True, 4, 910, 2216, 1159, 47.70),
        QeccBenchmark("[[14,8,3]]", 14, 8, 3, 25, False, 5, 2500, 7511, 3390, 54.87),
        QeccBenchmark("[[19,1,7]]", 19, 1, 7, 25, True, 6, 2510, 6838, 3393, 50.38),
        QeccBenchmark("[[23,1,7]]", 23, 1, 7, 14, True, 7, 1410, 3738, 2066, 44.73),
    ]
}

#: Benchmark names in the order used by the paper's tables.
BENCHMARK_NAMES: tuple[str, ...] = tuple(QECC_BENCHMARKS)


def five_one_three_paper_circuit() -> QuantumCircuit:
    """Return the exact ``[[5,1,3]]`` encoder printed in the paper (Figure 3)."""
    from repro.qasm.parser import parse_qasm

    return parse_qasm(FIVE_ONE_THREE_QASM, name="[[5,1,3]]-paper")


def calibrated_encoder(
    name: str,
    n: int,
    k: int,
    chain_length: int,
    *,
    leading_hadamard: bool = True,
    layer_width: int = 2,
) -> QuantumCircuit:
    """Build a stabilizer-encoder-shaped circuit with a known critical path.

    The circuit consists of Hadamards on the ``n - k`` ancilla qubits followed
    by ``chain_length`` dependency layers of controlled Pauli gates.  Each
    layer contains at most ``layer_width`` gates acting on disjoint qubits;
    one distinguished *spine* qubit appears in every layer, which pins the
    QIDG critical path to exactly ``chain_length`` two-qubit gates (preceded
    by one Hadamard when ``leading_hadamard`` is true).

    Args:
        name: Circuit name.
        n: Total number of physical qubits.
        k: Number of data qubits (declared without an initial value).
        chain_length: Number of two-qubit gates on the critical chain.
        leading_hadamard: Whether the spine is an ancilla (its Hadamard then
            precedes the chain) or a data qubit (no Hadamard on the chain).
        layer_width: Maximum number of concurrent gates per layer; must not
            exceed ``n // 2``.

    Returns:
        The generated :class:`QuantumCircuit`.

    Raises:
        CircuitError: If the parameters are inconsistent.
    """
    if n < 2 or not 0 < k < n:
        raise CircuitError(f"invalid code parameters n={n}, k={k}")
    if chain_length < 1:
        raise CircuitError("chain_length must be positive")
    if not 1 <= layer_width <= n // 2:
        raise CircuitError(f"layer_width must be within [1, {n // 2}]")
    num_ancillas = n - k
    if not leading_hadamard and k < 2:
        raise CircuitError("a non-Hadamard spine requires at least 2 data qubits")

    circuit = QuantumCircuit(name)
    # Ancillas first (initialised to |0>), then data qubits, mirroring the
    # declaration style of the paper's Figure 3.
    ancillas = [circuit.add_qubit(f"q{i}", 0) for i in range(num_ancillas)]
    data = [circuit.add_qubit(f"q{num_ancillas + i}") for i in range(k)]
    for ancilla in ancillas:
        circuit.h(ancilla)

    all_qubits = ancillas + data
    spine = ancillas[0] if leading_hadamard else data[0]
    others = [q for q in all_qubits if q is not spine]

    for layer in range(chain_length):
        used = {spine.name}
        if not leading_hadamard and layer == 0:
            # Keep the first chain gate free of Hadamard'ed qubits so no
            # dependency chain is longer than the spine's.
            partner = data[1]
        else:
            partner = others[layer % len(others)]
        gate = _PAULI_CYCLE[layer % len(_PAULI_CYCLE)]
        circuit.append(gate, spine, partner)
        used.add(partner.name)
        if not leading_hadamard and layer == 0:
            continue
        # Fill the layer with additional disjoint gates, rotating the pairing
        # so every qubit interacts with many partners across the circuit.
        pool = [q for q in all_qubits if q.name not in used]
        offset = layer % max(1, len(pool))
        pool = pool[offset:] + pool[:offset]
        extra = 0
        while extra < layer_width - 1 and len(pool) >= 2:
            control = pool.pop(0)
            target = pool.pop(0)
            gate = _PAULI_CYCLE[(layer + extra + 1) % len(_PAULI_CYCLE)]
            circuit.append(gate, control, target)
            extra += 1
    return circuit


def qecc_encoder(name: str) -> QuantumCircuit:
    """Return the benchmark encoding circuit called ``name``.

    ``name`` must be one of the paper's six codes, e.g. ``"[[5,1,3]]"``.
    The returned circuit is the calibrated reconstruction described in the
    module docstring; its ideal-baseline latency matches the paper's Table 2
    baseline column.

    Raises:
        CircuitError: If the benchmark name is unknown.
    """
    bench = QECC_BENCHMARKS.get(name)
    if bench is None:
        known = ", ".join(QECC_BENCHMARKS)
        raise CircuitError(f"unknown QECC benchmark {name!r}; known: {known}")
    return calibrated_encoder(
        bench.name,
        bench.n,
        bench.k,
        bench.chain_length,
        leading_hadamard=bench.leading_hadamard,
        layer_width=bench.layer_width,
    )


#: Block length of the quantum quadratic-residue code ``[[n, 1, d]]`` for the
#: distances where one exists.  These are the natural extrapolation of the
#: paper's ``[[23,1,7]]`` (the QR code of length 23): the scaled benchmark
#: family follows the same code construction upward in distance.
_QR_CODE_LENGTH: dict[int, int] = {3: 5, 5: 13, 7: 23, 9: 41, 11: 47}


def scaled_encoder(distance: int = 9) -> QuantumCircuit:
    """An encoder-shaped benchmark scaled to code distance ``distance``.

    Extrapolates the paper's QECC suite beyond its largest member: the block
    length follows the quantum quadratic-residue codes where one exists
    (``[[23,1,7]]`` → ``[[41,1,9]]`` → ``[[47,1,11]]``) and the generic
    ``n = (d² + 1) / 2`` stabilizer-code scaling otherwise.  The dependency
    structure mirrors :func:`calibrated_encoder` with a chain of ``2·d``
    two-qubit gates and up to ``d`` concurrent gates per layer, so both the
    qubit count and the issue-parallelism grow with the distance — the shape
    the event-core scaling benchmark sweeps.

    Args:
        distance: Odd code distance ``d ≥ 3``.

    Raises:
        CircuitError: If ``distance`` is even or smaller than 3.
    """
    if distance < 3 or distance % 2 == 0:
        raise CircuitError(f"distance must be an odd integer >= 3, got {distance}")
    n = _QR_CODE_LENGTH.get(distance, (distance * distance + 1) // 2)
    return calibrated_encoder(
        f"[[{n},1,{distance}]]",
        n,
        1,
        2 * distance,
        leading_hadamard=True,
        layer_width=min(distance, n // 2),
    )
