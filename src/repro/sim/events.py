"""Simulation events, the time-ordered event queue and its counters.

The two event types of paper Section IV.B drive the simulator:

* :class:`InstructionCompleted` — execution of an instruction finished; its
  dependent instructions may become ready.  It is scheduled when the
  instruction issues, since its finish time is known then.
* :class:`ChannelReleased` — a qubit left a channel; the channel's congestion
  weight drops and busy-queued instructions parked on it are retried.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro.errors import SimulationError
from repro.fabric.components import ChannelId


class InstructionCompleted(NamedTuple):
    """Execution of instruction ``instruction_index`` finished in ``trap_id``."""

    instruction_index: int
    trap_id: int


class ChannelReleased(NamedTuple):
    """Qubit ``qubit`` left channel ``channel_id``."""

    qubit: str
    channel_id: ChannelId


Event = InstructionCompleted | ChannelReleased


@dataclass
class EventLoopStats:
    """Counters of one simulation run's event loop.

    The event loop's analogue of
    :class:`~repro.routing.compiled.RoutingCoreStats`: cheap integers that
    make the loop's behaviour observable in summaries, sweep CSVs and the
    benchmark harness.

    Attributes:
        events_processed: Events popped off the heap.
        peak_heap_size: Largest number of events pending at once.
        wake_hits: Parked instructions woken by a targeted wake (a released
            channel or a changed trap naming them as blocker).
        skipped_polls: Event timestamps after which the issue loop was *not*
            re-entered because no instruction's blockers changed (always 0
            for forced-order and barrier runs, which poll every timestamp).
        issue_polls: Times the issue loop was entered.
    """

    events_processed: int = 0
    peak_heap_size: int = 0
    wake_hits: int = 0
    skipped_polls: int = 0
    issue_polls: int = 0

    def as_dict(self) -> dict[str, int]:
        """The counters under stable report/CSV keys."""
        return {
            "events_processed": self.events_processed,
            "event_peak_heap": self.peak_heap_size,
            "event_wake_hits": self.wake_hits,
            "event_skipped_polls": self.skipped_polls,
            "event_issue_polls": self.issue_polls,
        }


class EventQueue:
    """A time-ordered queue of simulation events.

    Events at equal times are delivered in insertion order, which keeps the
    simulation deterministic.  The queue tracks its own high-water mark
    (:attr:`peak_size`) for :class:`EventLoopStats`.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = 0
        self._peak = 0

    def push(self, time: float, event: Event) -> None:
        """Schedule ``event`` at ``time``.

        Raises:
            SimulationError: If ``time`` is negative or NaN.
        """
        if not time >= 0:
            raise SimulationError(
                f"cannot schedule an event at negative or NaN time {time}"
            )
        heapq.heappush(self._heap, (time, self._counter, event))
        self._counter += 1
        if len(self._heap) > self._peak:
            self._peak = len(self._heap)

    def pop(self) -> tuple[float, Event]:
        """Remove and return the earliest event as ``(time, event)``.

        Raises:
            SimulationError: If the queue is empty.
        """
        if not self._heap:
            raise SimulationError("event queue is empty")
        time, _, event = heapq.heappop(self._heap)
        return time, event

    def apply_earliest(
        self, apply: Callable[[float, Event], bool]
    ) -> tuple[float, int, bool] | None:
        """Pop and ``apply(time, event)`` every event at the earliest time.

        Events apply in insertion order; one that ``apply`` pushes at the
        batch's own time joins the batch.  Returns ``(time, events applied,
        whether any apply returned true)``, or ``None`` when the queue is empty.
        """
        heap = self._heap
        if not heap:
            return None
        time, _, event = heapq.heappop(heap)
        woke = apply(time, event)
        applied = 1
        while heap and heap[0][0] == time:
            woke = apply(time, heapq.heappop(heap)[2]) or woke
            applied += 1
        return time, applied, woke

    @property
    def peak_size(self) -> int:
        """Largest number of events that were ever pending at once."""
        return self._peak

    def __len__(self) -> int:
        return len(self._heap)
