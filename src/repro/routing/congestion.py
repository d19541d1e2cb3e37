"""Channel congestion bookkeeping.

The tracker keeps, per channel, the number of qubits that "are already using
or will use the channel as a part of their routing" (the ``n`` of the paper's
Eq. 2).  The scheduler *reserves* every channel of a planned route when the
instruction is issued and *releases* each channel when the corresponding
qubit-exits-channel event fires.

Occupancies live in one flat list, :attr:`CongestionTracker.levels`, indexed
by the fabric's channel slots (:attr:`~repro.fabric.fabric.Fabric.channel_slots`),
and that list is the tracker's only mutable state.  The router validates a
route-table snapshot with one ``itemgetter`` call and one tuple compare, and
the compiled routing graph prices each edge it relaxes by indexing its
static weight table with the edge channel's level, so nothing mirrors the
occupancies and no mutation has to be announced.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import FabricError, RoutingError, check_int
from repro.fabric.components import ChannelId
from repro.fabric.fabric import Fabric
from repro.technology import MAX_CHANNEL_CAPACITY


class CongestionTracker:
    """Mutable occupancy counts of the fabric's channels."""

    def __init__(self, fabric: Fabric, channel_capacity: int) -> None:
        # The compiled routing graph sizes its weight tables by the capacity.
        check_int(
            "channel_capacity", channel_capacity, 1, MAX_CHANNEL_CAPACITY,
            error=RoutingError,
        )
        self.fabric = fabric
        self.channel_capacity = channel_capacity
        self._slots = fabric.channel_slots
        #: Occupancy per channel slot (read-only for callers).  One spare
        #: entry at index ``-1`` stays 0; it answers unknown channels, and
        #: the compiled routing graph's turn edges read it.
        self.levels = [0] * (len(self._slots) + 1)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def occupancy(self, channel_id: ChannelId) -> int:
        """Current number of qubits using (or booked to use) ``channel_id``."""
        return self.levels[self._slots.get(channel_id, -1)]

    def is_full(self, channel_id: ChannelId) -> bool:
        """Whether ``channel_id`` has no residual capacity."""
        return self.levels[self._slots.get(channel_id, -1)] >= self.channel_capacity

    def snapshot(self) -> dict[ChannelId, int]:
        """A copy of the current occupancy map (non-zero entries only)."""
        levels = self.levels
        return {
            channel: levels[slot] for channel, slot in self._slots.items() if levels[slot]
        }

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
        self.reserve_all((channel_id,))

    def release(self, channel_id: ChannelId) -> bool:
        """Free one slot of ``channel_id``.

        Returns:
            ``True`` when the channel was at capacity, i.e. this release
            opened routing capacity that was previously exhausted.  The
            event-driven simulator uses this to tell capacity-opening
            releases (which can wake full-channel-blocked instructions) from
            releases that merely lower a finite congestion weight.

        Raises:
            FabricError: If the channel is unknown.
            RoutingError: If the channel has no outstanding reservation.
        """
        slot = self._slots.get(channel_id)
        if slot is None:
            raise FabricError(f"unknown channel {channel_id}")
        level = self.levels[slot]
        if level <= 0:
            raise RoutingError(f"channel {channel_id} released more often than reserved")
        self.levels[slot] = level - 1
        return level >= self.channel_capacity

    def reserve_all(self, channel_ids: Sequence[ChannelId]) -> None:
        """Book one slot per entry of ``channel_ids``, all or nothing.

        A channel listed twice is booked twice.

        Raises:
            FabricError: If a channel is unknown.
            RoutingError: If a booking would exceed a channel's capacity.
            Either way no booking of the call remains.
        """
        slots, levels = self._slots, self.levels
        capacity = self.channel_capacity
        booked = 0
        try:
            for channel_id in channel_ids:
                slot = slots[channel_id]
                level = levels[slot] + 1
                if level > capacity:
                    raise RoutingError(f"channel {channel_id} is already at capacity")
                levels[slot] = level
                booked += 1
        except (KeyError, RoutingError) as exc:
            for channel_id in channel_ids[:booked]:
                levels[slots[channel_id]] -= 1
            if isinstance(exc, KeyError):
                raise FabricError(f"unknown channel {channel_ids[booked]}") from None
            raise

    def release_all(self, channel_ids: Sequence[ChannelId]) -> None:
        """Free one slot per entry of ``channel_ids``, all or nothing.

        A channel listed twice is freed twice.

        Raises:
            FabricError: If a channel is unknown.
            RoutingError: If a channel would be released more often than
                reserved.  Either way no release of the call remains.
        """
        slots, levels = self._slots, self.levels
        freed = 0
        try:
            for channel_id in channel_ids:
                slot = slots[channel_id]
                level = levels[slot]
                if level <= 0:
                    raise RoutingError(
                        f"channel {channel_id} released more often than reserved"
                    )
                levels[slot] = level - 1
                freed += 1
        except (KeyError, RoutingError) as exc:
            for channel_id in channel_ids[:freed]:
                levels[slots[channel_id]] += 1
            if isinstance(exc, KeyError):
                raise FabricError(f"unknown channel {channel_ids[freed]}") from None
            raise
