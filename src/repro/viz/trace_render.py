"""Textual rendering of control traces.

:func:`render_gantt` draws a coarse per-qubit Gantt chart from the trace,
useful for eyeballing how much of the makespan each qubit spends moving,
turning, gating or idle.  ``ControlTrace.to_text`` gives the per-command
listing.
"""

from __future__ import annotations

from repro.sim.microcode import CommandKind
from repro.sim.trace import ControlTrace

#: Symbols of the Gantt chart.
_GANTT_SYMBOLS = {
    CommandKind.MOVE: "m",
    CommandKind.TURN: "t",
    CommandKind.GATE: "G",
}
_IDLE_SYMBOL = "."


def render_gantt(trace: ControlTrace, *, width: int = 80) -> str:
    """A per-qubit Gantt chart of ``width`` character columns.

    Each column covers ``makespan / width`` microseconds; the symbol shows
    what the qubit was doing for the majority of that slice (gate operations
    take precedence over relocations).
    """
    if len(trace) == 0:
        return "(empty trace)"
    makespan = trace.makespan
    if makespan <= 0:
        return "(zero-length trace)"
    qubits = sorted({qubit for command in trace for qubit in command.qubits})
    slice_us = makespan / width
    lines = []
    for qubit in qubits:
        cells = [_IDLE_SYMBOL] * width
        for command in trace.commands_for_qubit(qubit):
            first = int(command.start / slice_us)
            last = int(min(command.end, makespan - 1e-9) / slice_us)
            symbol = _GANTT_SYMBOLS[command.kind]
            for column in range(max(0, first), min(width, last + 1)):
                # Gates win over relocations, relocations win over idle.
                if symbol == "G" or cells[column] == _IDLE_SYMBOL:
                    cells[column] = symbol
        lines.append(f"{qubit:>8s} |{''.join(cells)}|")
    header = (
        f"{'':>8s}  0{'us':<{max(0, width - 10)}}{makespan:>8.0f}us\n"
    )
    legend = "legend: G gate, m move, t turn, . idle"
    return header + "\n".join(lines) + "\n" + legend
