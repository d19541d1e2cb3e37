"""Tests for simulation events, micro-commands and the control trace."""

from collections import Counter

import pytest

from repro.errors import SimulationError
from repro.sim.events import ChannelReleased, EventQueue, InstructionCompleted
from repro.sim.microcode import CommandKind, MicroCommand
from repro.sim.trace import ControlTrace


class TestEventQueue:
    def test_time_ordering(self):
        queue = EventQueue()
        queue.push(5.0, InstructionCompleted(1, 0))
        queue.push(2.0, InstructionCompleted(0, 0))
        time, event = queue.pop()
        assert time == 2.0
        assert event.instruction_index == 0

    def test_insertion_order_for_ties(self):
        queue = EventQueue()
        queue.push(1.0, InstructionCompleted(0, 0))
        queue.push(1.0, ChannelReleased("q", ("h", 0, 0)))
        _, first = queue.pop()
        _, second = queue.pop()
        assert isinstance(first, InstructionCompleted)
        assert isinstance(second, ChannelReleased)

    def test_batch_applies_every_event_at_the_earliest_time(self):
        queue = EventQueue()
        queue.push(2.0, InstructionCompleted(1, 0))
        queue.push(1.0, InstructionCompleted(0, 0))
        released = ChannelReleased("q", ("h", 0, 0))
        queue.push(1.0, released)
        applied = []

        def apply(time, event):
            applied.append((time, event))
            if isinstance(event, InstructionCompleted):
                # Pushed at the batch's own time while the batch is applied:
                # it joins the batch.
                queue.push(time, ChannelReleased(f"p{event.instruction_index}", ("v", 0, 0)))
            return event == released

        assert queue.apply_earliest(apply) == (1.0, 3, True)
        assert applied == [
            (1.0, InstructionCompleted(0, 0)),
            (1.0, released),
            (1.0, ChannelReleased("p0", ("v", 0, 0))),
        ]
        assert queue.apply_earliest(apply) == (2.0, 2, False)
        assert applied[3:] == [
            (2.0, InstructionCompleted(1, 0)),
            (2.0, ChannelReleased("p1", ("v", 0, 0))),
        ]
        assert queue.apply_earliest(apply) is None
        assert queue.peak_size == 3

    def test_pops_are_time_sorted_and_stable(self):
        queue = EventQueue()
        times = [2.0, 0.0, 2.0, 1.0, 0.0, 2.0]
        pushed = [(time, InstructionCompleted(index, 0)) for index, time in enumerate(times)]
        for time, event in pushed:
            queue.push(time, event)
        popped = [queue.pop() for _ in times]
        assert popped == sorted(pushed, key=lambda pair: pair[0])

    def test_len_and_peak_size(self):
        queue = EventQueue()
        for index, time in enumerate((3.0, 1.0, 2.0)):
            queue.push(time, InstructionCompleted(index, 0))
        assert queue.pop()[0] == 1.0
        queue.push(4.0, InstructionCompleted(3, 0))
        assert (len(queue), queue.peak_size) == (3, 3)
        while len(queue):
            queue.pop()
        assert queue.peak_size == 3

    def test_pop_empty(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().push(-1.0, InstructionCompleted(0, 0))

    def test_nan_time_rejected(self):
        # ``nan < 0`` is false, so only a ``not time >= 0`` guard catches it.
        queue = EventQueue()
        with pytest.raises(SimulationError):
            queue.push(float("nan"), InstructionCompleted(0, 0))
        assert len(queue) == 0


def _command(kind, start, duration, qubits=("q",), index=0):
    return MicroCommand(kind, start, duration, qubits, "resource", index, "detail")


class TestMicroCommand:
    def test_end_time(self):
        command = _command(CommandKind.MOVE, 5.0, 3.0)
        assert command.end == 8.0

    def test_str_contains_kind_and_qubit(self):
        text = str(_command(CommandKind.GATE, 0.0, 100.0, ("a", "b")))
        assert "GATE" in text
        assert "a,b" in text


class TestControlTrace:
    def test_commands_sorted_by_start(self):
        trace = ControlTrace()
        trace.add(_command(CommandKind.GATE, 10.0, 100.0))
        trace.add(_command(CommandKind.MOVE, 0.0, 5.0))
        starts = [c.start for c in trace.commands]
        assert starts == sorted(starts)

    def test_ties_keep_insertion_order(self):
        first = _command(CommandKind.MOVE, 2.0, 1.0, index=1)
        second = _command(CommandKind.GATE, 2.0, 1.0, index=2)
        trace = ControlTrace([_command(CommandKind.MOVE, 5.0, 1.0), first, second])
        assert trace.commands[:2] == (first, second)

    def test_add_after_a_read_updates_the_sorted_view(self):
        trace = ControlTrace([_command(CommandKind.GATE, 10.0, 100.0)])
        assert len(trace.commands) == 1
        trace.add(_command(CommandKind.MOVE, 0.0, 5.0))
        assert [c.kind for c in trace.commands] == [CommandKind.MOVE, CommandKind.GATE]

    def test_extend_after_a_read_updates_the_sorted_view(self):
        trace = ControlTrace()
        assert trace.commands == ()
        trace.extend([_command(CommandKind.GATE, 3.0, 1.0), _command(CommandKind.MOVE, 1.0, 1.0)])
        assert [c.start for c in trace.commands] == [1.0, 3.0]
        assert len(trace) == 2

    def test_makespan(self):
        trace = ControlTrace([_command(CommandKind.MOVE, 0.0, 5.0), _command(CommandKind.GATE, 5.0, 100.0)])
        assert trace.makespan == 105.0
        assert ControlTrace().makespan == 0.0

    def test_filters(self):
        trace = ControlTrace(
            [
                _command(CommandKind.MOVE, 0, 1, ("a",), index=3),
                _command(CommandKind.GATE, 1, 100, ("a", "b"), index=3),
                _command(CommandKind.MOVE, 0, 1, ("c",), index=4),
            ]
        )
        assert len(trace.commands_for_qubit("a")) == 2

    def test_commands_for_qubit_are_time_ordered(self):
        trace = ControlTrace(
            [
                _command(CommandKind.GATE, 9.0, 1.0, ("a", "b")),
                _command(CommandKind.MOVE, 1.0, 1.0, ("a",)),
                _command(CommandKind.MOVE, 4.0, 1.0, ("b",)),
            ]
        )
        assert [c.start for c in trace.commands_for_qubit("a")] == [1.0, 9.0]
        assert trace.commands_for_qubit("z") == []

    def test_to_text_limit(self):
        trace = ControlTrace([_command(CommandKind.MOVE, i, 1) for i in range(10)])
        text = trace.to_text(limit=3)
        assert "7 more commands" in text

    def test_to_text_has_one_line_per_command(self):
        commands = [_command(CommandKind.MOVE, i, 1) for i in range(4)]
        trace = ControlTrace(commands)
        assert trace.to_text().splitlines() == [str(c) for c in commands]
        assert trace.to_text(limit=4) == trace.to_text()

    def test_reversed_trace_preserves_makespan_and_counts(self):
        trace = ControlTrace(
            [_command(CommandKind.MOVE, 0, 5), _command(CommandKind.GATE, 5, 100)]
        )
        reversed_trace = trace.reversed_trace()
        assert reversed_trace.makespan == trace.makespan
        assert Counter(c.kind for c in reversed_trace) == Counter(c.kind for c in trace)
        # The gate that ended last now starts first.
        assert reversed_trace.commands[0].kind is CommandKind.GATE
