"""Technology parameters of the ion-trap quantum circuit fabric.

The paper (Section V.A) fixes the following physical machine description
(PMD) parameters for all experiments:

* ``T_move``  = 1 us   -- moving a qubit by one cell without changing direction
* ``T_turn``  = 10 us  -- changing the movement direction at a junction
* ``T_1q``    = 10 us  -- a one-qubit gate operation inside a trap
* ``T_2q``    = 100 us -- a two-qubit gate operation inside a trap
* channel capacity = 2 -- maximum number of qubits concurrently inside a
  channel, enabled by ion multiplexing

These are grouped in :class:`TechnologyParams` so that every component of the
mapper (scheduler, router, simulator, placers) reads delays from a single
place and alternative technologies can be explored by constructing a
different instance.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields

from repro.errors import check_int

#: The delay fields of :class:`TechnologyParams`, each a finite number of µs.
_DELAY_FIELDS = (
    "move_delay",
    "turn_delay",
    "one_qubit_gate_delay",
    "two_qubit_gate_delay",
    "measure_delay",
)

#: The largest channel capacity the mapper accepts.  The compiled routing
#: kernel keeps one Eq. (2) weight per occupancy ``0..capacity`` for each
#: channel length, so this bound keeps those tables small whatever a spec
#: asks for.  The paper's multiplexed channels hold two qubits.
MAX_CHANNEL_CAPACITY = 64


@dataclass(frozen=True)
class TechnologyParams:
    """Physical machine description of an ion-trap fabric.

    All delays are finite and expressed in microseconds, matching the
    paper.

    Attributes:
        move_delay: Delay of moving a qubit by one cell in a straight line.
        turn_delay: Delay of changing direction at a junction.  The paper
            notes a turn typically costs 5x-30x a move.
        one_qubit_gate_delay: Delay of any single-qubit gate operation.
        two_qubit_gate_delay: Delay of any two-qubit gate operation.
        measure_delay: Delay of a measurement operation.  The paper's
            benchmark circuits do not measure, so this defaults to the
            one-qubit gate delay.
        channel_capacity: Maximum number of qubits concurrently travelling in
            one channel, at most :data:`MAX_CHANNEL_CAPACITY`.  Channels are
            the only capacity-limited resource: a trap hosts at most the two
            operands of one gate, and a junction crossing is charged to the
            next channel (see ``docs/SCENARIOS.md``).
    """

    move_delay: float = 1.0
    turn_delay: float = 10.0
    one_qubit_gate_delay: float = 10.0
    two_qubit_gate_delay: float = 100.0
    measure_delay: float = 10.0
    channel_capacity: int = 2

    def __post_init__(self) -> None:
        # Types first: a custom PMD is a plain dict, so "1" or True may arrive.
        for name in _DELAY_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
            # NaN, infinities and ints too large for a float all fail.
            if not abs(value) <= sys.float_info.max:
                raise ValueError(f"{name} must be finite, got {value}")
        check_int(
            "channel_capacity", self.channel_capacity, 1, MAX_CHANNEL_CAPACITY,
            error=ValueError,
        )
        if self.move_delay <= 0:
            raise ValueError("move_delay must be positive")
        if self.turn_delay < 0:
            raise ValueError("turn_delay must be non-negative")
        if self.one_qubit_gate_delay < 0 or self.two_qubit_gate_delay < 0:
            raise ValueError("gate delays must be non-negative")
        if self.measure_delay < 0:
            raise ValueError("measure_delay must be non-negative")

    def gate_delay(self, arity: int, *, is_measurement: bool = False) -> float:
        """Return the gate delay for an operation with ``arity`` operands.

        Args:
            arity: Number of qubit operands of the gate (1 or 2).
            is_measurement: Whether the operation is a measurement.

        Returns:
            The technology delay in microseconds.

        Raises:
            ValueError: If ``arity`` is not 1 or 2.
        """
        if is_measurement:
            return self.measure_delay
        if arity == 1:
            return self.one_qubit_gate_delay
        if arity == 2:
            return self.two_qubit_gate_delay
        raise ValueError(f"unsupported gate arity: {arity}")

    def to_dict(self) -> dict:
        """Plain-JSON representation (inverse of :meth:`from_dict`).

        Example::

            >>> TechnologyParams().to_dict()["turn_delay"]
            10.0
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, record: dict) -> "TechnologyParams":
        """Build a fully custom PMD from a plain dict of parameter overrides.

        Missing keys fall back to the paper values, so a record only needs to
        name the parameters it changes.  Unknown keys raise ``ValueError``,
        naming each by its ``repr``, so a typo (``"turn_dealy"``) or a key that
        is no string fails loudly instead of being ignored.

        Example::

            >>> TechnologyParams.from_dict({"turn_delay": 2.0}).turn_delay
            2.0
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(repr(key) for key in record if key not in known)
        if unknown:
            raise ValueError(
                f"unknown technology parameters: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        return cls(**record)


#: Parameters used throughout the paper's experimental section.
PAPER_TECHNOLOGY = TechnologyParams()
