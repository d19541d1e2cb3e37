"""Channel congestion bookkeeping.

The tracker keeps, per channel, the number of qubits that "are already using
or will use the channel as a part of their routing" (the ``n`` of the paper's
Eq. 2).  The scheduler *reserves* every channel of a planned route when the
instruction is issued and *releases* each channel when the corresponding
qubit-exits-channel event fires.

Occupancies live in one flat list, :attr:`CongestionTracker.levels`, indexed
by the fabric's channel slots (:attr:`~repro.fabric.fabric.Fabric.channel_slots`),
so the router validates a route-table snapshot with one ``itemgetter`` call
and one tuple compare.

Every mutation bumps the tracker's **epoch**, a monotonically increasing
stamp drawn from a process-wide counter.  The compiled routing graph tags
its in-row edge weights with the epoch (and tracker) they were synced
against, so a query under unchanged congestion skips the resync with one
integer comparison.  Because the counter is process-wide and also advanced
when a tracker is created or reset, two *different* trackers can never carry
the same epoch.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from repro.errors import FabricError, RoutingError
from repro.fabric.components import ChannelId
from repro.fabric.fabric import Fabric


class CongestionTracker:
    """Mutable occupancy counts of the fabric's channels."""

    #: Process-wide epoch source; see the module docstring.
    _epoch_source = itertools.count(1)

    def __init__(self, fabric: Fabric, channel_capacity: int) -> None:
        if channel_capacity < 1:
            raise RoutingError("channel capacity must be at least 1")
        self.fabric = fabric
        self.channel_capacity = channel_capacity
        self._slots = fabric.channel_slots
        #: Occupancy per channel slot (read-only for callers).  One spare
        #: entry at index ``-1`` stays 0 and answers unknown channels.
        self.levels = [0] * (len(self._slots) + 1)
        #: Occupied slots mapped to their channel ids, in occupation order.
        self.occupied: dict[int, ChannelId] = {}
        self._peak = [0] * len(self._slots)
        self._total_reservations = 0
        self._epoch = next(CongestionTracker._epoch_source)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Stamp of the current congestion state.

        Unchanged epoch ⇒ unchanged occupancy; distinct across all trackers
        in the process, so epoch-tagged derived values are never confused
        between runs.
        """
        return self._epoch

    def occupancy(self, channel_id: ChannelId) -> int:
        """Current number of qubits using (or booked to use) ``channel_id``."""
        return self.levels[self._slots.get(channel_id, -1)]

    def is_full(self, channel_id: ChannelId) -> bool:
        """Whether ``channel_id`` has no residual capacity."""
        return self.levels[self._slots.get(channel_id, -1)] >= self.channel_capacity

    def residual_capacity(self, channel_id: ChannelId) -> int:
        """Free slots left in ``channel_id``."""
        return max(0, self.channel_capacity - self.levels[self._slots.get(channel_id, -1)])

    @property
    def total_reservations(self) -> int:
        """Number of channel reservations made over the run (a traffic metric)."""
        return self._total_reservations

    @property
    def busiest_channels(self) -> list[tuple[ChannelId, int]]:
        """Channels sorted by peak occupancy (descending)."""
        peaks = [(channel, peak) for channel, peak in zip(self._slots, self._peak) if peak]
        return sorted(peaks, key=lambda item: (-item[1], item[0]))

    def snapshot(self) -> dict[ChannelId, int]:
        """A copy of the current occupancy map (non-zero entries only)."""
        return {channel: self.levels[slot] for slot, channel in self.occupied.items()}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def reserve(self, channel_id: ChannelId) -> None:
        """Book one slot of ``channel_id``.

        Raises:
            FabricError: If the channel is unknown.
            RoutingError: If the channel is already at capacity (the router
                must never plan through a full channel).
        """
        slot = self._slots.get(channel_id)
        if slot is None:
            raise FabricError(f"unknown channel {channel_id}")
        level = self.levels[slot] + 1
        if level > self.channel_capacity:
            raise RoutingError(f"channel {channel_id} is already at capacity")
        self.levels[slot] = level
        if level == 1:
            self.occupied[slot] = channel_id
        self._peak[slot] = max(self._peak[slot], level)
        self._total_reservations += 1
        self._epoch = next(CongestionTracker._epoch_source)

    def release(self, channel_id: ChannelId) -> bool:
        """Free one slot of ``channel_id``.

        Returns:
            ``True`` when the channel was at capacity, i.e. this release
            opened routing capacity that was previously exhausted.  The
            event-driven simulator uses this to tell capacity-opening
            releases (which can wake full-channel-blocked instructions) from
            releases that merely lower a finite congestion weight.

        Raises:
            RoutingError: If the channel has no outstanding reservation.
        """
        slot = self._slots.get(channel_id, -1)
        level = self.levels[slot]
        if level <= 0:
            raise RoutingError(f"channel {channel_id} released more often than reserved")
        self.levels[slot] = level - 1
        if level == 1:
            del self.occupied[slot]
        self._epoch = next(CongestionTracker._epoch_source)
        return level >= self.channel_capacity

    def reserve_all(self, channel_ids: Iterable[ChannelId]) -> None:
        """Reserve every channel in ``channel_ids`` atomically.

        Either all reservations succeed or none are applied: a full channel
        (``RoutingError``) or an unknown one (``FabricError``) rolls back the
        reservations already made.
        """
        reserved: list[ChannelId] = []
        try:
            for channel_id in channel_ids:
                self.reserve(channel_id)
                reserved.append(channel_id)
        except (RoutingError, FabricError):
            for channel_id in reversed(reserved):
                self.release(channel_id)
            raise

    def reset(self) -> None:
        """Clear all occupancy (used between independent mapping runs)."""
        for slot in self.occupied:
            self.levels[slot] = 0
        self.occupied.clear()
        self._peak = [0] * len(self._peak)
        self._total_reservations = 0
        self._epoch = next(CongestionTracker._epoch_source)
