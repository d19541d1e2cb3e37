"""The contract of the records the simulate-route loop builds.

Steps, plans, kernel results, instruction routes and events are built on
every plan, issue and event of every placement run.  Each one is immutable
and hashable: equal values make equal records with equal hashes.
"""

import pytest

from repro.routing.compiled import DijkstraResult
from repro.routing.path import PathStep, RoutePlan, StepKind
from repro.routing.router import InstructionRoute
from repro.sim.events import ChannelReleased, InstructionCompleted

CHANNEL = ("h", 0, 0)


def _step() -> PathStep:
    return PathStep(StepKind.CHANNEL, CHANNEL, None, 3, 1, 13.0)


def _plan() -> RoutePlan:
    return RoutePlan("q", 0, 5, (_step(),), 13.0, 3, 1, (CHANNEL,))


#: Record name -> (a builder of fresh, equal instances, its attributes).
RECORDS = {
    "PathStep": (
        _step,
        ("kind", "channel_id", "junction_id", "moves", "turns", "duration"),
    ),
    "RoutePlan": (
        _plan,
        (
            "qubit",
            "source_trap",
            "target_trap",
            "steps",
            "duration",
            "total_moves",
            "total_turns",
            "channels_used",
        ),
    ),
    "DijkstraResult": (
        lambda: DijkstraResult(12.0, (0, 0), (1, 0), ()),
        ("cost", "entry_node", "exit_node", "edges"),
    ),
    "InstructionRoute": (
        lambda: InstructionRoute(1, 5, (_plan(),), (CHANNEL,)),
        ("instruction_index", "target_trap", "plans", "channels", "serial"),
    ),
    "InstructionCompleted": (
        lambda: InstructionCompleted(1, 5),
        ("instruction_index", "trap_id"),
    ),
    "ChannelReleased": (
        lambda: ChannelReleased("q", CHANNEL),
        ("qubit", "channel_id"),
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_attribute_assignment_raises(name):
    build, attributes = RECORDS[name]
    record = build()
    for attribute in attributes:
        before = getattr(record, attribute)
        with pytest.raises(AttributeError):
            setattr(record, attribute, before)
        assert getattr(record, attribute) == before


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_values_are_equal_and_hash_equal(name):
    build, _ = RECORDS[name]
    first, second = build(), build()
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


def test_instruction_route_defaults_to_no_channels_and_parallel_travel():
    route = InstructionRoute(3, 7, (_plan(),))
    assert route.channels == ()
    assert route.serial is False
    assert route == InstructionRoute(3, 7, (_plan(),), (), False)


def _timed_plan(duration, moves, turns) -> RoutePlan:
    return RoutePlan("q", 0, 5, (), duration, moves, turns, ())


@pytest.mark.parametrize("serial", [False, True], ids=["parallel", "serial"])
@pytest.mark.parametrize(
    "durations",
    [(0,), (13.0,), (0, 0), (0, 7.5), (7.5, 0), (4.0, 4), (4, 4.0), (0.1, 0.2), (9.0, 2.0)],
)
def test_instruction_route_totals_equal_the_sums_over_its_plans(durations, serial):
    # Values *and* types: a stationary plan's duration is the int 0, and
    # max() keeps the first of equal operands.
    plans = tuple(_timed_plan(d, 3 * i + 1, i) for i, d in enumerate(durations))
    route = InstructionRoute(1, 5, plans, (), serial)
    if serial:
        delay = sum(plan.duration for plan in plans)
        offsets, clock = [], 0.0
        for plan in plans:
            offsets.append(clock)
            clock += plan.duration
    else:
        delay = max((plan.duration for plan in plans), default=0.0)
        offsets = [0.0 for _ in plans]
    assert (repr(route.routing_delay), type(route.routing_delay)) == (repr(delay), type(delay))
    assert [repr(o) for o in route.plan_start_offsets()] == [repr(o) for o in offsets]
    assert route.total_moves == sum(plan.total_moves for plan in plans)
    assert route.total_turns == sum(plan.total_turns for plan in plans)
