"""Tests for the technology parameter model."""

import math

import pytest

from repro.errors import MappingError
from repro.pipeline.technologies import resolve_technology
from repro.technology import (
    LEGACY_TECHNOLOGY,
    MAX_CHANNEL_CAPACITY,
    PAPER_TECHNOLOGY,
    TechnologyParams,
)

DELAYS = (
    "move_delay",
    "turn_delay",
    "one_qubit_gate_delay",
    "two_qubit_gate_delay",
    "measure_delay",
    "prepare_delay",
)


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

    def test_legacy_capacity_is_one(self):
        assert LEGACY_TECHNOLOGY.channel_capacity == 1
        assert LEGACY_TECHNOLOGY.junction_capacity == 1

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

    def test_zero_trap_capacity_rejected(self):
        with pytest.raises(ValueError):
            TechnologyParams(trap_capacity=0)

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


class TestDerivedCopies:
    def test_with_channel_capacity(self):
        modified = PAPER_TECHNOLOGY.with_channel_capacity(1)
        assert modified.channel_capacity == 1
        assert modified.junction_capacity == 1
        assert PAPER_TECHNOLOGY.channel_capacity == 2  # original untouched

    def test_with_turn_delay(self):
        modified = PAPER_TECHNOLOGY.with_turn_delay(30.0)
        assert modified.turn_delay == 30.0
        assert modified.move_delay == PAPER_TECHNOLOGY.move_delay

    def test_frozen(self):
        with pytest.raises(Exception):
            PAPER_TECHNOLOGY.move_delay = 2.0  # type: ignore[misc]
