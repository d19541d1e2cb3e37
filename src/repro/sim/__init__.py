"""Event-driven simulation of a circuit executing on an ion-trap fabric.

The simulator is where scheduling, placement and routing meet: starting from
an initial placement of qubits in traps, it issues ready instructions in
priority (or forced-schedule) order, asks the router for operand journeys,
reserves channel capacity, and advances time through a timestamp-ordered
event heap, one timestamp at a time.  The typed events —
:class:`InstructionCompleted`, :class:`ChannelReleased` and
:class:`BarrierLevelCleared` — carry exactly the state change they announce,
so the engine re-attempts issue only for instructions whose blockers
actually changed (see ``docs/ARCHITECTURE.md``).  The first two correspond
to the two event kinds of Section IV.B of the paper; both are scheduled
when their instruction issues.

* :mod:`repro.sim.events` — typed events, the event heap and
  :class:`EventLoopStats`.
* :mod:`repro.sim.microcode` — the micro-commands (moves, turns, gates) the
  quantum system controller would issue.
* :mod:`repro.sim.trace` — the control trace: an ordered log of micro-commands.
* :mod:`repro.sim.engine` — the :class:`FabricSimulator` itself.
"""

from repro.sim.events import (
    BarrierLevelCleared,
    ChannelReleased,
    EventLoopStats,
    EventQueue,
    InstructionCompleted,
)
from repro.sim.microcode import CommandKind, MicroCommand
from repro.sim.trace import ControlTrace
from repro.sim.engine import FabricSimulator, InstructionRecord, SimulationOutcome

__all__ = [
    "EventQueue",
    "EventLoopStats",
    "InstructionCompleted",
    "ChannelReleased",
    "BarrierLevelCleared",
    "CommandKind",
    "MicroCommand",
    "ControlTrace",
    "FabricSimulator",
    "InstructionRecord",
    "SimulationOutcome",
]
