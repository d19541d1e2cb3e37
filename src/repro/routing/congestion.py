"""Channel congestion bookkeeping.

The tracker keeps, per channel, the number of qubits that "are already using
or will use the channel as a part of their routing" (the ``n`` of the paper's
Eq. 2).  The scheduler *reserves* every channel of a planned route when the
instruction is issued and *releases* each channel when the corresponding
qubit-exits-channel event fires.

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
from collections import Counter

from repro.errors import RoutingError
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
        self._occupancy: Counter[ChannelId] = Counter()
        self._peak: Counter[ChannelId] = Counter()
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
        return self._occupancy[channel_id]

    def is_full(self, channel_id: ChannelId) -> bool:
        """Whether ``channel_id`` has no residual capacity."""
        return self._occupancy[channel_id] >= self.channel_capacity

    def residual_capacity(self, channel_id: ChannelId) -> int:
        """Free slots left in ``channel_id``."""
        return max(0, self.channel_capacity - self._occupancy[channel_id])

    @property
    def total_reservations(self) -> int:
        """Number of channel reservations made over the run (a traffic metric)."""
        return self._total_reservations

    @property
    def busiest_channels(self) -> list[tuple[ChannelId, int]]:
        """Channels sorted by peak occupancy (descending)."""
        return sorted(self._peak.items(), key=lambda item: (-item[1], item[0]))

    def snapshot(self) -> dict[ChannelId, int]:
        """A copy of the current occupancy map (non-zero entries only)."""
        return {channel: count for channel, count in self._occupancy.items() if count}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def reserve(self, channel_id: ChannelId) -> None:
        """Book one slot of ``channel_id``.

        Raises:
            RoutingError: If the channel is unknown or already at capacity
                (the router must never plan through a full channel).
        """
        self.fabric.channel(channel_id)
        if self.is_full(channel_id):
            raise RoutingError(f"channel {channel_id} is already at capacity")
        self._occupancy[channel_id] += 1
        self._peak[channel_id] = max(self._peak[channel_id], self._occupancy[channel_id])
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
        if self._occupancy[channel_id] <= 0:
            raise RoutingError(f"channel {channel_id} released more often than reserved")
        was_full = self._occupancy[channel_id] >= self.channel_capacity
        self._occupancy[channel_id] -= 1
        if self._occupancy[channel_id] == 0:
            del self._occupancy[channel_id]
        self._epoch = next(CongestionTracker._epoch_source)
        return was_full

    def reserve_all(self, channel_ids: list[ChannelId]) -> None:
        """Reserve every channel in ``channel_ids`` atomically.

        Either all reservations succeed or none are applied.
        """
        reserved: list[ChannelId] = []
        try:
            for channel_id in channel_ids:
                self.reserve(channel_id)
                reserved.append(channel_id)
        except RoutingError:
            for channel_id in reversed(reserved):
                self.release(channel_id)
            raise

    def reset(self) -> None:
        """Clear all occupancy (used between independent mapping runs)."""
        self._occupancy.clear()
        self._peak.clear()
        self._total_reservations = 0
        self._epoch = next(CongestionTracker._epoch_source)
