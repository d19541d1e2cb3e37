"""QASM ingest: external benchmark files as first-class registry circuits.

:mod:`repro.qasm` can already parse files, but a path only works where a
path is meaningful — it does not survive service submissions from another
host, or cache keys.  Ingesting a file registers a *lazy*
factory under ``qasm/<stem>`` in :data:`repro.pipeline.CIRCUITS`, after
which the circuit behaves like any built-in benchmark name.

A small bundled suite (``suite/*.qasm``) is ingested on import, so every
process — CLI, service workers, test runners — resolves the same names.
The bundled circuits deliberately contain no ``MEASURE`` statements: MVFB
placement uncomputes the circuit, and measurements cannot be uncomputed.
"""

from __future__ import annotations

from pathlib import Path

from repro.circuits.circuit import QuantumCircuit
from repro.errors import CircuitError
from repro.pipeline.circuits import CIRCUITS

#: Directory of the bundled QASM workload suite.
SUITE_DIR = Path(__file__).resolve().parent / "suite"

#: Registry-name prefix of ingested QASM circuits.
QASM_PREFIX = "qasm/"


def ingest_qasm_file(path: "Path | str", name: str | None = None) -> str:
    """Register a QASM file as a named circuit; returns the registry name.

    The file is parsed lazily (on first resolution) and re-parsed on every
    build, so the factory stays cheap to register and picklable by name.

    Args:
        path: The QASM file to ingest.
        name: Registry name override; defaults to ``qasm/<stem>``.

    Raises:
        CircuitError: When the file does not exist.
    """
    path = Path(path)
    if not path.is_file():
        raise CircuitError(f"cannot ingest QASM circuit: no file at {path}")
    registry_name = name if name is not None else f"{QASM_PREFIX}{path.stem}"

    def build(**params) -> QuantumCircuit:
        if params:
            raise CircuitError(
                f"ingested QASM circuit {registry_name!r} takes no parameters"
            )
        from repro.qasm.parser import parse_qasm_file

        return parse_qasm_file(path)

    build.__name__ = f"qasm_{path.stem}"
    build.__doc__ = f"QASM circuit ingested from {path.name}."
    CIRCUITS.register(registry_name, build)
    return registry_name


def ingest_qasm_dir(directory: "Path | str") -> "tuple[str, ...]":
    """Ingest every ``*.qasm`` file of ``directory``; returns the new names.

    Files are ingested in sorted order so registration (and therefore
    ``qspr-map list``) is deterministic.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise CircuitError(f"cannot ingest QASM circuits: no directory at {directory}")
    return tuple(
        ingest_qasm_file(path) for path in sorted(directory.glob("*.qasm"))
    )


def register_bundled_suite() -> "tuple[str, ...]":
    """Ingest the bundled suite (idempotent); returns its registry names."""
    names = []
    for path in sorted(SUITE_DIR.glob("*.qasm")):
        name = f"{QASM_PREFIX}{path.stem}"
        if name not in CIRCUITS:
            ingest_qasm_file(path, name)
        names.append(name)
    return tuple(names)


#: Registry names of the bundled suite, ingested at import time.
BUNDLED_SUITE: "tuple[str, ...]" = register_bundled_suite()
