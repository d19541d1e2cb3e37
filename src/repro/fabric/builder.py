"""Parametric construction of ion-trap fabrics.

The builder generates a regular fabric: a lattice of junctions with channels
of a fixed length between adjacent junctions and trap sites attached to the
horizontal channels.  The 45×85-cell fabric released with QUALE and used for
all of the paper's experiments (Figure 4) is approximated by
:func:`quale_fabric`; the component types and routing semantics are the same,
only the exact trap coordinates differ (see DESIGN.md, substitutions).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FabricError, check_int
from repro.fabric.components import Channel, ChannelId, Junction, JunctionId, Trap
from repro.fabric.fabric import Fabric
from repro.fabric.geometry import Coord, Orientation


@dataclass(frozen=True)
class FabricSpec:
    """Parameters of a regular fabric.

    Attributes:
        name: Fabric name.
        junction_rows: Number of junction rows in the lattice.
        junction_cols: Number of junction columns in the lattice.
        channel_length: Number of channel cells between adjacent junctions.
        traps_per_channel: Number of trap sites attached to each horizontal
            channel (0, 1 or 2).
    """

    name: str = "fabric"
    junction_rows: int = 4
    junction_cols: int = 4
    channel_length: int = 3
    traps_per_channel: int = 2

    def __post_init__(self) -> None:
        check_int("junction_rows", self.junction_rows, error=FabricError)
        check_int("junction_cols", self.junction_cols, 2, error=FabricError)
        check_int("channel_length", self.channel_length, error=FabricError)
        check_int("traps_per_channel", self.traps_per_channel, 0, 2, error=FabricError)
        if self.traps_per_channel == 2 and self.channel_length < 2:
            raise FabricError("two traps per channel require channel_length >= 2")

    @property
    def pitch(self) -> int:
        """Cell distance between adjacent junction centers."""
        return self.channel_length + 1

    @property
    def cell_rows(self) -> int:
        """Rows of the resulting cell grid."""
        return (self.junction_rows - 1) * self.pitch + 1

    @property
    def cell_cols(self) -> int:
        """Columns of the resulting cell grid."""
        return (self.junction_cols - 1) * self.pitch + 1


class FabricBuilder:
    """Builds a :class:`Fabric` from a :class:`FabricSpec`."""

    def __init__(self, spec: FabricSpec) -> None:
        self.spec = spec

    def _junction_cell(self, row: int, col: int) -> Coord:
        return (row * self.spec.pitch, col * self.spec.pitch)

    def _trap_offsets(self) -> list[int]:
        length = self.spec.channel_length
        if self.spec.traps_per_channel == 0:
            return []
        if self.spec.traps_per_channel == 1:
            return [(length + 1) // 2]
        return [1, length]

    def build(self) -> Fabric:
        """Construct the fabric described by the spec.

        Raises:
            FabricError: If the spec yields a fabric without traps.
        """
        spec = self.spec
        junctions: dict[JunctionId, Junction] = {}
        channels: dict[ChannelId, Channel] = {}
        traps: dict[int, Trap] = {}

        for row in range(spec.junction_rows):
            for col in range(spec.junction_cols):
                junction_id = (row, col)
                junctions[junction_id] = Junction(junction_id, self._junction_cell(row, col))

        trap_offsets = self._trap_offsets()
        next_trap = 0
        for row in range(spec.junction_rows):
            for col in range(spec.junction_cols - 1):
                channel_id: ChannelId = ("h", row, col)
                base_row, base_col = self._junction_cell(row, col)
                cells = tuple(
                    (base_row, base_col + offset) for offset in range(1, spec.channel_length + 1)
                )
                channels[channel_id] = Channel(
                    channel_id,
                    Orientation.HORIZONTAL,
                    (row, col),
                    (row, col + 1),
                    spec.channel_length,
                    cells,
                )
                # Traps hang off the horizontal channel: above it except on the
                # topmost junction row, where they go below to stay in-grid.
                trap_row = base_row - 1 if row > 0 else base_row + 1
                for offset in trap_offsets:
                    traps[next_trap] = Trap(
                        next_trap, channel_id, offset, (trap_row, base_col + offset)
                    )
                    next_trap += 1

        for row in range(spec.junction_rows - 1):
            for col in range(spec.junction_cols):
                channel_id = ("v", row, col)
                base_row, base_col = self._junction_cell(row, col)
                cells = tuple(
                    (base_row + offset, base_col) for offset in range(1, spec.channel_length + 1)
                )
                channels[channel_id] = Channel(
                    channel_id,
                    Orientation.VERTICAL,
                    (row, col),
                    (row + 1, col),
                    spec.channel_length,
                    cells,
                )

        if not traps:
            raise FabricError("the fabric spec produces no traps; increase traps_per_channel")
        return Fabric(spec.name, junctions, channels, traps, spec.cell_rows, spec.cell_cols)


def build_fabric(spec: FabricSpec) -> Fabric:
    """Convenience wrapper: build a fabric directly from a spec."""
    return FabricBuilder(spec).build()


def quale_fabric() -> Fabric:
    """The 45×85-cell fabric used by all of the paper's experiments.

    A 12×22 junction lattice with channels of 3 cells reproduces the 45×85
    cell-grid footprint of the fabric released with the QUALE package
    (Figure 4 of the paper); two trap sites are attached to every horizontal
    channel.
    """
    return build_fabric(
        FabricSpec(
            name="quale-45x85",
            junction_rows=12,
            junction_cols=22,
            channel_length=3,
            traps_per_channel=2,
        )
    )


def small_fabric(
    junction_rows: int = 4,
    junction_cols: int = 4,
    channel_length: int = 3,
    traps_per_channel: int = 2,
) -> Fabric:
    """A compact fabric for tests, examples and quick experiments."""
    return build_fabric(
        FabricSpec(
            name=f"small-{junction_rows}x{junction_cols}",
            junction_rows=junction_rows,
            junction_cols=junction_cols,
            channel_length=channel_length,
            traps_per_channel=traps_per_channel,
        )
    )


def linear_fabric(junction_cols: int = 6, channel_length: int = 3) -> Fabric:
    """A two-row fabric forming a long strip; useful for worst-case routing."""
    return build_fabric(
        FabricSpec(
            name=f"linear-{junction_cols}",
            junction_rows=2,
            junction_cols=junction_cols,
            channel_length=channel_length,
            traps_per_channel=2,
        )
    )
