"""Tests for the technology parameter model."""

import math
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.errors import MappingError
from repro.pipeline.technologies import resolve_technology
from repro.qidg.graph import build_qidg
from repro.technology import MAX_CHANNEL_CAPACITY, PAPER_TECHNOLOGY, TechnologyParams

DELAYS = (
    "move_delay",
    "turn_delay",
    "one_qubit_gate_delay",
    "two_qubit_gate_delay",
    "measure_delay",
)

#: Parameters the model does not have: junctions and traps are no
#: capacity-limited resource, and a PREPARE is a one-qubit gate.
UNMODELLED = ("junction_capacity", "trap_capacity", "prepare_delay")


class TestPaperDefaults:
    def test_move_delay(self):
        assert PAPER_TECHNOLOGY.move_delay == 1.0

    def test_turn_delay(self):
        assert PAPER_TECHNOLOGY.turn_delay == 10.0

    def test_gate_delays(self):
        assert PAPER_TECHNOLOGY.one_qubit_gate_delay == 10.0
        assert PAPER_TECHNOLOGY.two_qubit_gate_delay == 100.0

    def test_channel_capacity_is_two(self):
        assert PAPER_TECHNOLOGY.channel_capacity == 2

    def test_turn_is_slower_than_move(self):
        # The paper: a turn takes 5x-30x a move.
        ratio = PAPER_TECHNOLOGY.turn_delay / PAPER_TECHNOLOGY.move_delay
        assert 5 <= ratio <= 30


class TestGateDelay:
    def test_one_qubit(self):
        assert PAPER_TECHNOLOGY.gate_delay(1) == 10.0

    def test_two_qubit(self):
        assert PAPER_TECHNOLOGY.gate_delay(2) == 100.0

    def test_measurement(self):
        assert PAPER_TECHNOLOGY.gate_delay(1, is_measurement=True) == PAPER_TECHNOLOGY.measure_delay

    def test_invalid_arity(self):
        with pytest.raises(ValueError):
            PAPER_TECHNOLOGY.gate_delay(3)


class TestValidation:
    def test_negative_move_delay_rejected(self):
        with pytest.raises(ValueError):
            TechnologyParams(move_delay=0.0)

    def test_negative_turn_delay_rejected(self):
        with pytest.raises(ValueError):
            TechnologyParams(turn_delay=-1.0)

    def test_zero_channel_capacity_rejected(self):
        with pytest.raises(ValueError):
            TechnologyParams(channel_capacity=0)

    def test_channel_capacity_above_the_maximum_rejected(self):
        # The router's weight tables hold one entry per occupancy up to the
        # capacity, so a custom PMD may not ask for an unbounded one.
        assert TechnologyParams(channel_capacity=MAX_CHANNEL_CAPACITY).channel_capacity == 64
        with pytest.raises(ValueError, match="^channel_capacity must be at most 64, got 65"):
            TechnologyParams(channel_capacity=MAX_CHANNEL_CAPACITY + 1)
        with pytest.raises(MappingError, match="channel_capacity must be at most 64"):
            resolve_technology({"channel_capacity": 10**9})

    def test_negative_gate_delay_rejected(self):
        with pytest.raises(ValueError):
            TechnologyParams(two_qubit_gate_delay=-5.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", DELAYS)
    def test_non_finite_delay_rejected_by_name(self, name, value):
        # NaN and inf pass every sign check, yet either one makes the
        # simulator report a wrong latency or stall.
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            TechnologyParams(**{name: value})

    def test_non_finite_custom_technology_is_a_mapping_error(self):
        with pytest.raises(MappingError, match="turn_delay must be finite"):
            resolve_technology({"turn_delay": math.inf})

    def test_delay_no_float_can_hold_is_a_mapping_error(self):
        # An int past the float range would overflow the simulator's clock.
        with pytest.raises(MappingError, match="turn_delay must be finite"):
            resolve_technology({"turn_delay": 10**400})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("turn_delay", "1"),
            ("channel_capacity", "2"),
            ("channel_capacity", 2.5),
            ("turn_delay", True),
        ],
        ids=["str-delay", "str-capacity", "float-capacity", "bool-delay"],
    )
    def test_mistyped_field_is_rejected_by_name(self, name, value):
        # A delay is an int or a float, a capacity an int; a bool is neither.
        with pytest.raises(ValueError, match=f"^{name} must be an? (number|integer)"):
            TechnologyParams(**{name: value})
        with pytest.raises(MappingError, match=f"invalid custom technology: {name} "):
            resolve_technology({name: value})


    def test_frozen(self):
        with pytest.raises(Exception):
            PAPER_TECHNOLOGY.move_delay = 2.0  # type: ignore[misc]


class TestWhatTheModelReads:
    def test_fields(self):
        assert [f.name for f in fields(TechnologyParams)] == [*DELAYS, "channel_capacity"]

    @pytest.mark.parametrize("name", UNMODELLED)
    def test_unmodelled_parameter_is_refused_by_name(self, name):
        with pytest.raises(ValueError, match=f"^unknown technology parameters: '{name}' "):
            TechnologyParams.from_dict({name: 1})
        with pytest.raises(MappingError, match=f"unknown technology parameters: '{name}' "):
            resolve_technology({name: 1})

    @pytest.mark.parametrize(
        "record, named",
        [({1: 2}, "1"), ({None: 1}, "None"), ({"turn_delay": 1, 2: 3}, "2"),
         ({None: 1, 2: 3, "x": 4}, "'x', 2, None")],
        ids=["int", "none", "int-beside-a-field", "mixed"],
    )
    def test_key_that_is_no_string_is_refused_by_repr(self, record, named):
        with pytest.raises(MappingError, match=f"unknown technology parameters: {named} "):
            resolve_technology(record)

    def test_prepare_is_a_one_qubit_gate(self):
        circuit = QuantumCircuit("prep")
        circuit.add_qubit("q")
        circuit.append("PREPARE", "q")
        delays = build_qidg(circuit).gate_delays(PAPER_TECHNOLOGY)
        assert delays == (PAPER_TECHNOLOGY.one_qubit_gate_delay,)


_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_KEYS = (
    st.sampled_from([*DELAYS, "channel_capacity", *UNMODELLED])
    | st.text(max_size=8)
    | st.integers()
    | st.none()
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_KEYS, _JSON_VALUES | st.integers(-3, 70), max_size=4))
def test_a_custom_pmd_dict_builds_or_is_a_mapping_error(record):
    """Any dict of str, int or None keys and JSON-like values either builds a
    PMD or is refused with a MappingError, and nothing else."""
    try:
        technology = resolve_technology(record)
    except MappingError:
        return
    assert isinstance(technology, TechnologyParams)
    assert technology.to_dict() == PAPER_TECHNOLOGY.to_dict() | record
