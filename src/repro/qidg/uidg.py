"""The uncompute instruction dependency graph (UIDG).

Quantum computations are reversible: reversing every edge of the QIDG and
replacing every gate by its inverse yields the dependency graph of the
*uncompute* circuit, ``build_qidg(circuit.inverse())``.  The MVFB placer
(Section IV.A of the paper) alternates between executing the QIDG forward
with schedule ``S`` and executing the UIDG backward with the reversed
schedule ``S*``, feeding the final qubit placement of each pass into the
next.  Instruction ``i`` of the forward circuit is instruction ``N - 1 - i``
of the inverse circuit; this module translates schedules across that map.
"""

from __future__ import annotations

from repro.errors import CircuitError


def forward_to_backward_index(num_instructions: int, forward_index: int) -> int:
    """Map a forward instruction index to its index in the inverse circuit."""
    if not 0 <= forward_index < num_instructions:
        raise CircuitError(
            f"instruction index {forward_index} out of range for {num_instructions} instructions"
        )
    return num_instructions - 1 - forward_index


def reverse_schedule(schedule: list[int], num_instructions: int) -> list[int]:
    """Translate a forward schedule ``S`` into the backward schedule ``S*``.

    ``schedule`` lists forward instruction indices in issue order.  The
    backward schedule issues the corresponding inverse instructions in the
    opposite order, which is guaranteed to respect the UIDG dependencies.

    Args:
        schedule: Forward issue order (a permutation of ``range(num_instructions)``).
        num_instructions: Number of instructions in the circuit.

    Returns:
        Issue order over the *inverse* circuit's instruction indices.

    Raises:
        CircuitError: If ``schedule`` is not a permutation of the instruction
            indices.
    """
    if sorted(schedule) != list(range(num_instructions)):
        raise CircuitError("schedule must be a permutation of all instruction indices")
    return [
        forward_to_backward_index(num_instructions, index) for index in reversed(schedule)
    ]
