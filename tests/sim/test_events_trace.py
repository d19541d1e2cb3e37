"""Tests for simulation events, micro-commands and the control trace."""

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

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(3.0, InstructionCompleted(0, 0))
        assert queue.peek_time() == 3.0
        assert len(queue) == 1

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

    def test_makespan(self):
        trace = ControlTrace([_command(CommandKind.MOVE, 0.0, 5.0), _command(CommandKind.GATE, 5.0, 100.0)])
        assert trace.makespan == 105.0
        assert ControlTrace().makespan == 0.0

    def test_count_by_kind(self):
        trace = ControlTrace([_command(CommandKind.MOVE, 0, 1), _command(CommandKind.MOVE, 1, 1)])
        counts = trace.count_by_kind()
        assert counts[CommandKind.MOVE] == 2
        assert counts[CommandKind.GATE] == 0

    def test_filters(self):
        trace = ControlTrace(
            [
                _command(CommandKind.MOVE, 0, 1, ("a",), index=3),
                _command(CommandKind.GATE, 1, 100, ("a", "b"), index=3),
                _command(CommandKind.MOVE, 0, 1, ("c",), index=4),
            ]
        )
        assert len(trace.commands_for_qubit("a")) == 2
        assert len(trace.commands_for_instruction(4)) == 1

    def test_busy_time(self):
        trace = ControlTrace([_command(CommandKind.TURN, 0, 10), _command(CommandKind.TURN, 5, 10)])
        assert trace.busy_time(CommandKind.TURN) == 20.0

    def test_to_text_limit(self):
        trace = ControlTrace([_command(CommandKind.MOVE, i, 1) for i in range(10)])
        text = trace.to_text(limit=3)
        assert "7 more commands" in text

    def test_reversed_trace_preserves_makespan_and_counts(self):
        trace = ControlTrace(
            [_command(CommandKind.MOVE, 0, 5), _command(CommandKind.GATE, 5, 100)]
        )
        reversed_trace = trace.reversed_trace()
        assert reversed_trace.makespan == trace.makespan
        assert reversed_trace.count_by_kind() == trace.count_by_kind()
        # The gate that ended last now starts first.
        assert reversed_trace.commands[0].kind is CommandKind.GATE
