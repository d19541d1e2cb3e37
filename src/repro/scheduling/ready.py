"""Dependency bookkeeping for the scheduler.

:class:`DependencyTracker` mirrors the QIDG as mutable "remaining
predecessors" counters: when an instruction finishes, its successors'
counters drop and those reaching zero become ready to issue.
"""

from __future__ import annotations

from repro.errors import SchedulingError
from repro.qidg.graph import QIDG


class DependencyTracker:
    """Tracks which instructions are ready, issued and completed.

    It holds the QIDG's successor tuples, one remaining-predecessor counter
    per instruction, and the sets of issued and completed instructions.
    """

    def __init__(self, qidg: QIDG) -> None:
        self._successors = qidg.successors
        self._remaining = [len(preds) for preds in qidg.predecessors]
        self._issued: set[int] = set()
        self._completed: set[int] = set()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def initially_ready(self) -> list[int]:
        """Instructions with no dependencies, in program order."""
        return [node for node, remaining in enumerate(self._remaining) if remaining == 0]

    @property
    def all_completed(self) -> bool:
        """Whether every instruction has completed."""
        return len(self._completed) == len(self._remaining)

    @property
    def outstanding(self) -> list[int]:
        """Instructions not yet completed, in program order."""
        return [node for node in range(len(self._remaining)) if node not in self._completed]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def mark_issued(self, index: int) -> None:
        """Record that ``index`` has been issued.

        Raises:
            SchedulingError: If the instruction is not part of the QIDG, is
                not ready or was already issued.
        """
        if not 0 <= index < len(self._remaining):
            raise SchedulingError(f"instruction {index} is not part of the QIDG")
        if self._remaining[index] != 0:
            raise SchedulingError(f"instruction {index} issued before its dependencies completed")
        if index in self._issued:
            raise SchedulingError(f"instruction {index} issued twice")
        self._issued.add(index)

    def mark_completed(self, index: int) -> list[int]:
        """Record completion of ``index`` and return newly ready instructions.

        Raises:
            SchedulingError: If the instruction was not issued or completed
                twice.
        """
        if index not in self._issued:
            raise SchedulingError(f"instruction {index} completed without being issued")
        if index in self._completed:
            raise SchedulingError(f"instruction {index} completed twice")
        self._completed.add(index)
        newly_ready: list[int] = []
        for successor in self._successors[index]:
            self._remaining[successor] -= 1
            if self._remaining[successor] == 0:
                newly_ready.append(successor)
            elif self._remaining[successor] < 0:  # pragma: no cover - defensive
                raise SchedulingError(f"instruction {successor} has negative dependency count")
        return newly_ready
