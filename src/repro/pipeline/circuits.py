"""The benchmark-circuit registry: named factories for workload circuits.

Entries are factories ``(**params) -> QuantumCircuit``.  Built-ins:

* the paper's six QECC encoder benchmarks, under their code names
  (``"[[5,1,3]]"`` … ``"[[23,1,7]]"``), in the paper's table order;
* ``ghz`` — GHZ chains (fully sequential two-qubit gates);
* ``ripple`` — ripple dependency chains with repeatable rounds;
* ``qft-like`` — the all-to-all interaction pattern of a QFT;
* ``random`` — seeded random circuits with a controlled two-qubit fraction.

:func:`resolve_circuit` also accepts a live circuit (returned unchanged) or
the path of a QASM file, which keeps the CLI and
:class:`~repro.runner.spec.ExperimentSpec` semantics: any string that is not
a registered name is treated as a file path.

Besides plain registry names, *parameterised* names select a factory **and**
its parameters in one string: ``"random-layered:q=8:d=12:seed=3"`` is the
``random-layered`` factory called with ``num_qubits=8, depth=12, seed=3``.
The segments are colon-separated ``key=value`` pairs (comma-free on purpose,
so parameterised names survive the CLI's comma-separated sweep axes and
:func:`~repro.runner.spec.parse_axis`).  Values parse as int, then float,
then bool, then plain string; short aliases (``q``/``w`` → ``num_qubits``,
``d`` → ``depth``, ``g`` → ``num_gates``, ``l`` → ``locality``, ``s`` →
``seed``, ``f`` → ``fill``, ``r`` → ``rounds``) keep command lines
compact.  Because the whole configuration lives in the *name*, a
parameterised circuit is picklable across worker processes and hashes into
result-cache keys like any registered name.
"""

from __future__ import annotations

from pathlib import Path

from repro.circuits.builders import ghz_circuit, qft_like_circuit, ripple_chain_circuit
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.qecc import BENCHMARK_NAMES, qecc_encoder, scaled_encoder
from repro.circuits.random_circuits import random_circuit
from repro.errors import CircuitError
from repro.pipeline.registry import Registry

#: The circuit registry: QECC suite + generators.
CIRCUITS = Registry("circuit")


def _qecc_factory(name: str):
    def build(**params) -> QuantumCircuit:
        if params:
            raise CircuitError(f"QECC benchmark {name!r} takes no parameters")
        return qecc_encoder(name)

    build.__name__ = f"qecc_{name}"
    build.__doc__ = f"The paper's {name} QECC encoder benchmark."
    return build


for _name in BENCHMARK_NAMES:
    CIRCUITS.register(_name, _qecc_factory(_name))

@CIRCUITS.register("qecc-scaled")
def qecc_scaled(distance: int = 9) -> QuantumCircuit:
    """A QECC-encoder benchmark extrapolated to code distance ``distance``.

    ``qecc-scaled:distance=9`` (or ``qecc-scaled:dist=9``) builds the
    ``[[41,1,9]]`` member of the scaled family; see
    :func:`repro.circuits.qecc.scaled_encoder`.
    """
    return scaled_encoder(distance)


@CIRCUITS.register("ghz")
def ghz(num_qubits: int = 5) -> QuantumCircuit:
    """A GHZ chain: ``num_qubits`` fully sequential two-qubit gates."""
    return ghz_circuit(num_qubits)


@CIRCUITS.register("ripple")
def ripple(num_qubits: int = 5, *, rounds: int = 1) -> QuantumCircuit:
    """A ripple dependency chain repeated for ``rounds`` rounds."""
    return ripple_chain_circuit(num_qubits, rounds=rounds)


@CIRCUITS.register("qft-like")
def qft_like(num_qubits: int = 5) -> QuantumCircuit:
    """The all-to-all controlled-interaction pattern of a QFT."""
    return qft_like_circuit(num_qubits)


@CIRCUITS.register("random")
def random(
    num_qubits: int = 6,
    num_gates: int = 24,
    *,
    two_qubit_fraction: float = 0.6,
    seed: int = 0,
) -> QuantumCircuit:
    """A seeded random circuit with a controlled two-qubit gate fraction."""
    return random_circuit(
        num_qubits, num_gates, two_qubit_fraction=two_qubit_fraction, seed=seed
    )


#: Short spellings accepted in parameterised circuit names, expanded to the
#: canonical factory keyword before the factory is called.
PARAM_ALIASES: dict[str, str] = {
    "q": "num_qubits",
    "w": "num_qubits",
    "qubits": "num_qubits",
    "width": "num_qubits",
    "d": "depth",
    "g": "num_gates",
    "gates": "num_gates",
    "l": "locality",
    "loc": "locality",
    "dist": "distance",
    "s": "seed",
    "f": "fill",
    "r": "rounds",
    "frac": "two_qubit_fraction",
}


def _coerce(value: str):
    """Parse a parameter value: int, then float, then bool, then string."""
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            pass
    lowered = value.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    return value


def parse_circuit_name(name: str) -> "tuple[str, dict]":
    """Split a circuit name into ``(base, params)``.

    Plain registry names come back with empty params; a parameterised name
    is only recognised when its base is a registered factory, so QASM paths
    containing colons are never mis-parsed.

    Example::

        >>> parse_circuit_name("random:q=4:seed=7")
        ('random', {'num_qubits': 4, 'seed': 7})
        >>> parse_circuit_name("[[5,1,3]]")
        ('[[5,1,3]]', {})
    """
    if name in CIRCUITS or ":" not in name:
        return name, {}
    base, *segments = name.split(":")
    if base not in CIRCUITS:
        return name, {}
    params: dict = {}
    for segment in segments:
        key, equals, value = segment.partition("=")
        key = key.strip()
        if not equals or not key:
            raise CircuitError(
                f"bad parameter segment {segment!r} in circuit name {name!r}; "
                "expected key=value"
            )
        params[PARAM_ALIASES.get(key, key)] = _coerce(value.strip())
    return base, params


def is_circuit_name(name: str) -> bool:
    """Whether ``name`` resolves through the registry (plain or parameterised)."""
    base, _ = parse_circuit_name(name)
    return base in CIRCUITS


def is_regular_file(path: str) -> bool:
    """Whether ``path`` names an existing regular file, such as a QASM file.

    A directory is not one, and neither is a name the operating system
    rejects (say, one longer than the filesystem allows).
    """
    try:
        return Path(path).is_file()
    except OSError:
        return False


def resolve_circuit(circuit: "QuantumCircuit | str", **params) -> QuantumCircuit:
    """Turn a circuit, registry name or QASM path into a live circuit.

    Args:
        circuit: A :class:`QuantumCircuit` (returned unchanged), a registry
            name (``"[[5,1,3]]"``, ``"ghz"``, a plugin name, …), a
            parameterised name (``"random-layered:q=8:d=12"``) or the path
            of a QASM file.
        params: Keyword parameters forwarded to the registry factory (e.g.
            ``num_qubits`` for ``ghz``).  Parameters embedded in the name
            take precedence over these keyword defaults.

    Raises:
        CircuitError: When the string is neither a registered name nor a
            regular file (the message carries the did-you-mean suggestion),
            or when the factory rejects the given parameters.
    """
    if isinstance(circuit, QuantumCircuit):
        return circuit
    base, name_params = parse_circuit_name(circuit)
    if base in CIRCUITS:
        merged = {**params, **name_params}
        try:
            return CIRCUITS.get(base)(**merged)
        except TypeError as exc:
            raise CircuitError(
                f"circuit {base!r} rejected parameters {merged!r}: {exc}"
            ) from exc
    path = Path(circuit)
    if is_regular_file(circuit):
        from repro.qasm.parser import parse_qasm_file

        return parse_qasm_file(path)
    try:
        CIRCUITS.get(circuit)  # raises with the did-you-mean suggestion
    except KeyError as exc:
        raise CircuitError(f"{exc.args[0]}; and no QASM file exists at {path}") from exc
    raise CircuitError(f"cannot resolve circuit {circuit!r}")  # pragma: no cover
