"""Expansion of a routing-graph path into a timed per-resource plan.

The Dijkstra result is a junction-level path; the simulator needs to know,
for each qubit, *which channels it occupies for how long* (to schedule the
qubit-exits-channel events that drive congestion release) and the total
move/turn counts (the realised ``T_routing`` of Eq. 1).  A
:class:`RoutePlan` is that expansion.

Accounting conventions (documented here once, used consistently everywhere):

* Leaving a trap costs one move (trap cell into the adjacent channel cell)
  plus one turn (reorienting from the trap into the channel direction);
  entering a trap costs the same at the far end.
* Travelling along a channel costs one move per cell; the move that enters a
  junction cell is attributed to the channel being left.
* Crossing a junction without changing direction is free (its single cell is
  accounted for by the next channel's entry move); changing direction inside
  a junction costs one turn.
* A qubit occupies a channel from the moment it enters the channel until it
  enters the junction cell (or trap) at the far end.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from repro.errors import RoutingError
from repro.fabric.components import ChannelId, JunctionId, Trap
from repro.fabric.fabric import Fabric
from repro.routing.graph_model import GraphEdge
from repro.technology import TechnologyParams


class StepKind(Enum):
    """Kind of a route step."""

    CHANNEL = "channel"
    TURN = "turn"


class PathStep(NamedTuple):
    """One leg of a qubit's journey.

    Attributes:
        kind: Channel traversal or an in-junction turn.
        channel_id: Channel occupied during the step (``None`` for turns).
        junction_id: Junction the turn happens in (``None`` for channels).
        moves: Number of single-cell moves in the step.
        turns: Number of turns in the step.
        duration: Wall-clock duration of the step in microseconds.
    """

    kind: StepKind
    channel_id: ChannelId | None
    junction_id: JunctionId | None
    moves: int
    turns: int
    duration: float


class RoutePlan(NamedTuple):
    """The complete, timed journey of one qubit for one instruction.

    The last four attributes total the steps, once, where they are built,
    so they add nothing to ``==`` and ``repr`` leaves them out.

    Attributes:
        qubit: Name of the travelling qubit.
        source_trap: Trap id the qubit starts in.
        target_trap: Trap id the qubit ends in.
        steps: Ordered steps; empty when source and target traps coincide.
        duration: Total travel time, summed left to right (the qubit's
            contribution to ``T_routing``).
        total_moves: Total number of single-cell moves.
        total_turns: Total number of turns.
        channels_used: Channels occupied along the route, in traversal order.
    """

    qubit: str
    source_trap: int
    target_trap: int
    steps: tuple[PathStep, ...]
    duration: float
    total_moves: int
    total_turns: int
    channels_used: tuple[ChannelId, ...]

    def __repr__(self) -> str:
        return (
            f"RoutePlan(qubit={self.qubit!r}, source_trap={self.source_trap!r}, "
            f"target_trap={self.target_trap!r}, steps={self.steps!r})"
        )


def stationary_plan(qubit: str, trap_id: int) -> RoutePlan:
    """A plan for a qubit that does not need to move."""
    return RoutePlan(qubit, trap_id, trap_id, (), 0, 0, 0, ())


def _channel_step(
    channel_id: ChannelId,
    moves: int,
    turns: int,
    technology: TechnologyParams,
) -> PathStep:
    duration = moves * technology.move_delay + turns * technology.turn_delay
    return PathStep(StepKind.CHANNEL, channel_id, None, moves, turns, duration)


def _turn_step(junction_id: JunctionId, technology: TechnologyParams) -> PathStep:
    return PathStep(StepKind.TURN, None, junction_id, 0, 1, technology.turn_delay)


def expand_route(
    fabric: Fabric,
    technology: TechnologyParams,
    qubit: str,
    source: Trap,
    target: Trap,
    entry_endpoint: JunctionId | None,
    edges: tuple[GraphEdge, ...],
) -> RoutePlan:
    """Expand a junction-level path into a :class:`RoutePlan`.

    Args:
        fabric: The fabric being routed on.
        technology: Delay parameters.
        qubit: Name of the travelling qubit.
        source: The trap the qubit leaves.
        target: The trap the qubit enters.
        entry_endpoint: The junction (endpoint of the source channel) through
            which the route enters the junction lattice; ``None`` when source
            and target traps are on the same channel (or are the same trap).
        edges: The Dijkstra edges from the entry node to the exit node.

    Returns:
        The expanded plan.

    Raises:
        RoutingError: If the supplied path is inconsistent with the fabric.
    """
    if source.id == target.id:
        return stationary_plan(qubit, source.id)

    source_channel = fabric.channel(source.channel_id)
    target_channel = fabric.channel(target.channel_id)

    # Same-channel shortcut: exit the trap, slide along the channel, enter the
    # other trap.  No junction is crossed.
    if source.channel_id == target.channel_id:
        if entry_endpoint is not None or edges:
            raise RoutingError("same-channel routes must not traverse the junction lattice")
        slide = abs(source.offset - target.offset)
        moves = 1 + slide + 1
        step = _channel_step(source.channel_id, moves, 2, technology)
        return RoutePlan(
            qubit, source.id, target.id, (step,),
            step.duration, moves, 2, (source.channel_id,),
        )

    if entry_endpoint is None:
        raise RoutingError("cross-channel routes require an entry endpoint")

    steps: list[PathStep] = []
    # Leg 1: trap cell -> source channel -> entry junction cell.
    exit_moves = 1 + source_channel.distance_from_endpoint(entry_endpoint, source.offset)
    steps.append(_channel_step(source.channel_id, exit_moves, 1, technology))

    # Turns are derived from orientation changes between consecutive channels,
    # not from the turn edges of the selection graph: the turn-oblivious model
    # (prior tools) has no turn edges, yet its qubits still pay the physical
    # turn delay when they change direction at a junction.
    current_orientation = source_channel.orientation
    current_junction = entry_endpoint
    for edge in edges:
        if edge.is_turn:
            assert edge.junction_id is not None
            if edge.junction_id != current_junction:
                raise RoutingError(
                    f"turn at junction {edge.junction_id} but route is at {current_junction}"
                )
            continue
        assert edge.channel_id is not None
        channel = fabric.channel(edge.channel_id)
        if channel.orientation is not current_orientation:
            steps.append(_turn_step(current_junction, technology))
            current_orientation = channel.orientation
        next_junction = channel.other_endpoint(current_junction)
        steps.append(_channel_step(channel.id, channel.length + 1, 0, technology))
        current_junction = next_junction

    # Leg 3: exit junction cell -> target channel -> trap cell.
    if target_channel.orientation is not current_orientation:
        steps.append(_turn_step(current_junction, technology))
    enter_moves = target_channel.distance_from_endpoint(current_junction, target.offset) + 1
    steps.append(_channel_step(target.channel_id, enter_moves, 1, technology))

    duration, moves, turns = 0, 0, 0
    channels: list[ChannelId] = []
    for step in steps:
        duration += step.duration
        moves += step.moves
        turns += step.turns
        if step.channel_id is not None:
            channels.append(step.channel_id)
    return RoutePlan(
        qubit, source.id, target.id, tuple(steps), duration, moves, turns, tuple(channels)
    )
