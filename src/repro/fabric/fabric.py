"""The :class:`Fabric` container and its spatial queries.

A fabric is an immutable description of the ion-trap layout: junctions on a
lattice, channels between adjacent junctions and traps attached to channels.
It offers the spatial queries the placers and the router need: nearest traps
to a point, trap-to-trap Manhattan distances and the fabric center used by
center placement.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping

from repro.errors import FabricError
from repro.fabric.components import Channel, ChannelId, Junction, JunctionId, Trap, TrapId
from repro.fabric.geometry import Coord, manhattan_distance


class Fabric:
    """An ion-trap circuit fabric.

    Instances are built by :class:`repro.fabric.builder.FabricBuilder`; the
    constructor validates referential integrity of the supplied components.

    Attributes:
        name: Human-readable fabric name.
        cell_rows: Number of rows of the cell-grid rendering.
        cell_cols: Number of columns of the cell-grid rendering.
    """

    def __init__(
        self,
        name: str,
        junctions: Mapping[JunctionId, Junction],
        channels: Mapping[ChannelId, Channel],
        traps: Mapping[TrapId, Trap],
        cell_rows: int,
        cell_cols: int,
    ) -> None:
        self.name = name
        self._junctions = dict(junctions)
        self._channels = dict(channels)
        self._traps = dict(traps)
        self.cell_rows = cell_rows
        self.cell_cols = cell_cols
        self._validate()
        self._adjacency: dict[JunctionId, list[ChannelId]] = {j: [] for j in self._junctions}
        for channel in self._channels.values():
            self._adjacency[channel.endpoint_a].append(channel.id)
            self._adjacency[channel.endpoint_b].append(channel.id)
        # Memoised distance orderings: the fabric is immutable, so the sorted
        # trap list of a query point never changes.  The router asks for the
        # same few points (trap cells, operand medians, the center) for every
        # issued instruction, which made the full-fabric sort a hot path.
        self._traps_by_distance_cache: dict[tuple[float, float], tuple[Trap, ...]] = {}

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if not self._junctions:
            raise FabricError("a fabric needs at least one junction")
        if not self._traps:
            raise FabricError("a fabric needs at least one trap")
        for channel in self._channels.values():
            for endpoint in channel.endpoints:
                if endpoint not in self._junctions:
                    raise FabricError(
                        f"channel {channel.id} references unknown junction {endpoint}"
                    )
        for trap in self._traps.values():
            channel = self._channels.get(trap.channel_id)
            if channel is None:
                raise FabricError(f"trap {trap.id} references unknown channel {trap.channel_id}")
            if not 1 <= trap.offset <= channel.length:
                raise FabricError(
                    f"trap {trap.id} offset {trap.offset} outside channel of length {channel.length}"
                )

    # ------------------------------------------------------------------
    # Component access
    # ------------------------------------------------------------------
    @property
    def junctions(self) -> dict[JunctionId, Junction]:
        """All junctions keyed by lattice id."""
        return self._junctions

    @property
    def channels(self) -> dict[ChannelId, Channel]:
        """All channels keyed by channel id."""
        return self._channels

    @property
    def traps(self) -> dict[TrapId, Trap]:
        """All traps keyed by trap id."""
        return self._traps

    @cached_property
    def channel_slots(self) -> dict[ChannelId, int]:
        """Dense channel numbering ``0..n-1`` ("slots"), fixed per fabric.

        Occupancy arrays and route-table snapshots are indexed by slot, so
        every tracker and router on the fabric agrees on the numbering.
        """
        return {channel_id: slot for slot, channel_id in enumerate(self._channels)}

    @property
    def num_traps(self) -> int:
        """Number of trap sites."""
        return len(self._traps)

    def junction(self, junction_id: JunctionId) -> Junction:
        """Look up a junction by lattice id."""
        try:
            return self._junctions[junction_id]
        except KeyError as exc:
            raise FabricError(f"unknown junction {junction_id}") from exc

    def channel(self, channel_id: ChannelId) -> Channel:
        """Look up a channel by id."""
        try:
            return self._channels[channel_id]
        except KeyError as exc:
            raise FabricError(f"unknown channel {channel_id}") from exc

    def trap(self, trap_id: TrapId) -> Trap:
        """Look up a trap by id."""
        try:
            return self._traps[trap_id]
        except KeyError as exc:
            raise FabricError(f"unknown trap {trap_id}") from exc

    def channels_at(self, junction_id: JunctionId) -> list[Channel]:
        """Channels incident to ``junction_id``."""
        return [self._channels[c] for c in self._adjacency[self.junction(junction_id).id]]

    def traps_on(self, channel_id: ChannelId) -> list[Trap]:
        """Traps attached to ``channel_id``, ordered by offset."""
        self.channel(channel_id)
        return sorted(
            (t for t in self._traps.values() if t.channel_id == channel_id),
            key=lambda t: t.offset,
        )

    # ------------------------------------------------------------------
    # Spatial queries
    # ------------------------------------------------------------------
    @cached_property
    def center(self) -> tuple[float, float]:
        """Geometric center of the cell grid."""
        return ((self.cell_rows - 1) / 2.0, (self.cell_cols - 1) / 2.0)

    def trap_distance(self, a: TrapId, b: TrapId) -> int:
        """Manhattan distance between two trap cells.

        This is a geometric estimate (ignores the channel topology); the
        router computes true move/turn counts.
        """
        return manhattan_distance(self.trap(a).cell, self.trap(b).cell)

    #: Cached distance orderings kept per fabric (each entry holds one
    #: reference per trap, so the bound keeps memory modest even for sweeps
    #: that query many distinct median points).
    _TRAPS_BY_DISTANCE_CACHE_SIZE = 4096

    @cached_property
    def _ranking_basis(self) -> tuple[tuple[Trap, ...], tuple[Coord, ...]]:
        """The traps in id order and their cells: what every ranking sorts."""
        traps = tuple(sorted(self._traps.values(), key=lambda trap: trap.id))
        return traps, tuple(trap.cell for trap in traps)

    def ranked_traps(self, point: tuple[float, float]) -> tuple[Trap, ...]:
        """The memoised :meth:`traps_by_distance` ordering itself, shared.

        For callers that only iterate the ranking: it costs no copy.
        """
        key = (point[0], point[1])
        ranked = self._traps_by_distance_cache.get(key)
        if ranked is None:
            if len(self._traps_by_distance_cache) >= self._TRAPS_BY_DISTANCE_CACHE_SIZE:
                self._traps_by_distance_cache.clear()
            # A stable sort of the id-ordered traps by distance alone is the
            # (distance, id) order.  The expression is distance_to_point's.
            traps, cells = self._ranking_basis
            row, col = key
            distances = [abs(r - row) + abs(c - col) for r, c in cells]
            order = sorted(range(len(traps)), key=distances.__getitem__)
            ranked = tuple([traps[i] for i in order])
            self._traps_by_distance_cache[key] = ranked
        return ranked

    def traps_by_distance(self, point: tuple[float, float]) -> list[Trap]:
        """All traps sorted by L1 distance to ``point`` (ties by trap id).

        The ordering is memoised per point; callers receive a fresh list they
        are free to mutate.
        """
        return list(self.ranked_traps(point))

    def traps_near_center(self) -> list[Trap]:
        """All traps sorted by distance to the fabric center.

        The prefix of this list is what QUALE's *center placement* fills with
        qubits.
        """
        return self.traps_by_distance(self.center)

    def nearest_trap(
        self,
        point: tuple[float, float],
        *,
        exclude: Iterable[TrapId] = (),
    ) -> Trap:
        """The trap closest to ``point`` that is not in ``exclude``.

        Raises:
            FabricError: If every trap is excluded.
        """
        excluded = set(exclude)
        for trap in self.traps_by_distance(point):
            if trap.id not in excluded:
                return trap
        raise FabricError("no free trap available on the fabric")

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"Fabric(name={self.name!r}, cells={self.cell_rows}x{self.cell_cols}, "
            f"junctions={len(self._junctions)}, channels={len(self._channels)}, "
            f"traps={len(self._traps)})"
        )
