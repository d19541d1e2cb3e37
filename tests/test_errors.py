"""Tests for the exception hierarchy."""

import pytest

from repro.errors import (
    CircuitError,
    FabricError,
    MappingError,
    PlacementError,
    QasmError,
    ReproError,
    RoutingError,
    SchedulingError,
    SimulationError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exception_type",
        [
            QasmError,
            CircuitError,
            FabricError,
            PlacementError,
            RoutingError,
            SchedulingError,
            SimulationError,
            MappingError,
        ],
    )
    def test_all_derive_from_repro_error(self, exception_type):
        assert issubclass(exception_type, ReproError)

    def test_catching_the_base_class(self):
        with pytest.raises(ReproError):
            raise MappingError("boom")


class TestQasmErrorLineNumbers:
    def test_line_prefix(self):
        error = QasmError("bad token", line=12)
        assert "line 12" in str(error)
        assert error.line == 12

    def test_without_line(self):
        error = QasmError("bad token")
        assert error.line is None
        assert str(error) == "bad token"
