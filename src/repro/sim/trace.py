"""The control trace: the ordered log of micro-commands of a mapping run."""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.sim.microcode import MicroCommand


class ControlTrace:
    """An append-only, time-ordered collection of micro-commands."""

    def __init__(self, commands: Iterable[MicroCommand] = ()) -> None:
        self._commands: list[MicroCommand] = list(commands)
        self._sorted: tuple[MicroCommand, ...] | None = None

    def add(self, command: MicroCommand) -> None:
        """Append one command."""
        self._commands.append(command)
        self._sorted = None

    def extend(self, commands: Iterable[MicroCommand]) -> None:
        """Append several commands."""
        self._commands.extend(commands)
        self._sorted = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def commands(self) -> tuple[MicroCommand, ...]:
        """All commands sorted by start time (ties by insertion order).

        The sorted view is cached between mutations: reporting code walks it
        repeatedly (the Gantt chart projects it once per qubit), and Python's
        sort is near-linear on the already-sorted cached input anyway.
        """
        if self._sorted is None:
            self._sorted = tuple(sorted(self._commands, key=lambda c: c.start))
        return self._sorted

    def __iter__(self) -> Iterator[MicroCommand]:
        return iter(self.commands)

    def __len__(self) -> int:
        return len(self._commands)

    @property
    def makespan(self) -> float:
        """Completion time of the last command (0 for an empty trace)."""
        return max((command.end for command in self._commands), default=0.0)

    def commands_for_qubit(self, qubit: str) -> list[MicroCommand]:
        """All commands involving ``qubit``, in time order."""
        return [command for command in self.commands if qubit in command.qubits]

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def to_text(self, *, limit: int | None = None) -> str:
        """Human-readable rendering, optionally truncated to ``limit`` lines."""
        lines = [str(command) for command in self.commands]
        if limit is not None and len(lines) > limit:
            omitted = len(lines) - limit
            lines = lines[:limit] + [f"... ({omitted} more commands)"]
        return "\n".join(lines)

    def reversed_trace(self) -> "ControlTrace":
        """The trace re-ordered back-to-front on the time axis.

        Used when the best MVFB solution comes from a backward (uncompute)
        pass: the paper reports the *reverse* of the backward control trace as
        the solution trace.  Times are mirrored around the makespan so the
        result is again a forward-running trace.
        """
        makespan = self.makespan
        mirrored = [
            MicroCommand(
                command.kind,
                makespan - command.end,
                command.duration,
                command.qubits,
                command.resource,
                command.instruction_index,
                command.detail,
            )
            for command in self._commands
        ]
        return ControlTrace(mirrored)
