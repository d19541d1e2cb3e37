"""Exception hierarchy for the QSPR reproduction library.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class.  More specific subclasses exist
for each pipeline stage (parsing, circuit construction, fabric modelling,
placement, routing, scheduling and simulation).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class CircuitError(ReproError):
    """Raised when a quantum circuit is constructed or used incorrectly."""


class QasmError(CircuitError):
    """Raised when a QASM program or file is refused.

    A circuit error, because a refused program describes no circuit: the
    reader re-raises what :class:`~repro.circuits.QuantumCircuit` refuses as
    one of these, with the line it came from.
    """

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class FabricError(ReproError):
    """Raised when an ion-trap fabric description is invalid."""


class PlacementError(ReproError):
    """Raised when qubits cannot be placed on the fabric."""


class RoutingError(ReproError):
    """Raised when the router encounters an unrecoverable situation."""


class SchedulingError(ReproError):
    """Raised when the scheduler reaches an inconsistent state."""


class SimulationError(ReproError):
    """Raised when the event-driven simulator reaches an inconsistent state."""


class MappingError(ReproError):
    """Raised when an end-to-end mapping run cannot produce a result."""


def check_int(
    name: str,
    value,
    minimum: int | None = 1,
    maximum: int | None = None,
    *,
    error: type[Exception] = MappingError,
) -> None:
    """Raise ``error``, naming the field, unless ``value`` is an ``int`` in range.

    A ``bool`` is not an integer here, so a JSON ``true`` never passes for a
    count.  Specs, mapper options, fabric specs and PMDs share this one rule.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise error(f"{name} must be at least {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise error(f"{name} must be at most {maximum}, got {value}")
