"""The busy queue: ready-but-unroutable instructions.

When the router cannot find a finite-weight path for a ready instruction
(all candidate channels are at capacity), the instruction is parked here and
retried whenever the status of some channel changes (a qubit-exits-channel
event).  The queue keeps no times: an instruction's wait, the paper's
``T_congestion`` contribution to its delay (Eq. 1), is its issue time less
the ready time on its :class:`~repro.sim.engine.InstructionRecord`.

Retries are driven by **wake-sets keyed by tagged resources**: a parked
instruction records the resources that blocked its last routing attempt
(:meth:`BusyQueue.block_on`), and the engine wakes only the instructions
parked on a resource that actually changed (:meth:`BusyQueue.wake`) instead
of invalidating the whole queue.  The queue itself treats keys as opaque
hashables; the router emits four namespaces (see
:mod:`repro.routing.router`):

* ``("ch", channel_id)`` — a channel on the failure cut; woken when a qubit
  exits that channel.
* ``("trap", trap_id)`` — a meeting-trap candidate skipped because it was
  occupied; woken when an issuing instruction vacates that trap.
* ``("trapc", trap_id)`` — a free candidate that was tried and found
  unreachable; woken when an issue *reserves* that trap, which shifts the
  candidate horizon.
* ``ANY_CONGESTION_CHANGE`` — the collapse sentinel used when the precise
  blocker set would be unbounded (or exceeds ``MAX_BLOCKER_KEYS``); woken on
  every release and every issue, so collapsing is always safe.

An instruction whose recorded blockers are all still standing is guaranteed
to fail routing again, so the issue loop skips it
(:meth:`BusyQueue.needs_retry`).
"""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.errors import SchedulingError


class BusyQueue:
    """Set of parked instructions and the resources that blocked each."""

    def __init__(self) -> None:
        self._parked: set[int] = set()
        self._total_entries = 0
        # Wake-set bookkeeping: a parked instruction appears in `_blockers`
        # exactly while its last routing failure is known to still stand;
        # `_wake` is the reverse index (resource → instructions parked on
        # it).  Reverse-index entries are cleaned lazily — waking an
        # instruction that would fail anyway is harmless (routing is pure),
        # whereas never waking a routable one would change schedules.
        self._blockers: dict[int, frozenset[Hashable]] = {}
        self._wake: dict[Hashable, set[int]] = {}

    def park(self, index: int) -> None:
        """Add ``index`` to the queue (idempotent for re-parks)."""
        if index not in self._parked:
            self._parked.add(index)
            self._total_entries += 1

    def remove(self, index: int) -> None:
        """Remove ``index`` from the queue.

        Raises:
            SchedulingError: If the instruction is not in the queue.
        """
        try:
            self._parked.remove(index)
        except KeyError as exc:
            raise SchedulingError(f"instruction {index} is not in the busy queue") from exc
        self._blockers.pop(index, None)

    # ------------------------------------------------------------------
    # Wake-sets keyed by resource
    # ------------------------------------------------------------------
    def block_on(self, index: int, resources: Iterable[Hashable]) -> None:
        """Record the resources that blocked ``index``'s last routing attempt.

        Until one of them is released (:meth:`wake`), the instruction is
        known to be unroutable and :meth:`needs_retry` returns ``False``.

        Raises:
            SchedulingError: If the instruction is not parked.
        """
        if index not in self._parked:
            raise SchedulingError(f"instruction {index} is not in the busy queue")
        blockers = frozenset(resources)
        self._blockers[index] = blockers
        for resource in blockers:
            self._wake.setdefault(resource, set()).add(index)

    def needs_retry(self, index: int) -> bool:
        """Whether a routing retry of parked ``index`` could succeed.

        ``False`` only while the blockers recorded by :meth:`block_on` are
        all known to still stand; instructions without recorded blockers are
        always retried.
        """
        return index not in self._blockers

    def wake(self, resource: Hashable) -> list[int]:
        """Release ``resource``: wake the instructions parked on it.

        Returns the woken instruction indices (mainly for tests/metrics).
        """
        woken: list[int] = []
        for index in self._wake.pop(resource, ()):
            # Lazy reverse-index cleanup: only instructions whose *current*
            # blocker set names the resource are actually asleep on it.
            if resource in self._blockers.get(index, ()):
                del self._blockers[index]
                woken.append(index)
        return woken

    def __contains__(self, index: int) -> bool:
        return index in self._parked

    def __len__(self) -> int:
        return len(self._parked)

    @property
    def total_entries(self) -> int:
        """How many times any instruction has been parked (a congestion metric)."""
        return self._total_entries
