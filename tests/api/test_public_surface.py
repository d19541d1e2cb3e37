"""Public-API surface guarantees.

Run in CI as its own step: every name promised by the ``__all__`` of
``repro`` or any of its modules must be importable, and every plugin
registered in the six registries of
``repro.pipeline.REGISTRIES`` must round-trip through the ``qspr-map list``
subcommand.
"""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil

import pytest

import repro
from repro.cli import main
from repro.pipeline import REGISTRIES


class TestPublicSurface:
    def test_all_entries_are_importable(self):
        # Every module, so that a deletion leaving a dangling export fails.
        modules = [repro] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
        ]
        missing = [
            f"{module.__name__}.{name}"
            for module in modules
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
        assert missing == [], f"__all__ names without attribute: {missing}"

    def test_all_has_no_duplicates(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_canonical_facade_is_exported(self):
        assert "map_circuit" in repro.__all__
        assert callable(repro.map_circuit)

    def test_registries_are_exported(self):
        for registry_name in (
            "MAPPERS", "PLACERS", "FABRICS", "CIRCUITS", "SCHEDULERS", "TECHNOLOGIES",
        ):
            assert registry_name in repro.__all__
            assert len(getattr(repro, registry_name)) > 0

    def test_scenario_surface_is_exported(self):
        assert "SchedulingPolicy" in repro.__all__
        assert callable(repro.resolve_scheduler)
        assert callable(repro.resolve_technology)

    def test_reference_definitions_live_in_the_test_oracle(self):
        # The router ranks meeting traps and the simulator times channel
        # releases inline; their definitions are the oracle's references
        # (tests/reference_oracle.py), not package API.
        import repro.fabric.geometry
        import repro.routing
        from repro.routing.path import RoutePlan

        assert "select_target_trap" not in repro.routing.__all__
        assert importlib.util.find_spec("repro.routing.trap_selection") is None
        assert not hasattr(repro.fabric.geometry, "median_point")
        assert not hasattr(RoutePlan, "channel_exit_times")

    def test_the_pmd_is_the_one_home_of_the_physical_model(self):
        # The duplicate legacy preset, the PMD's copy helpers, the options'
        # capacity override and the ideal baseline's test-only result are gone.
        import repro.mapper.ideal
        import repro.routing
        import repro.technology

        assert "LEGACY_TECHNOLOGY" not in repro.__all__
        assert not hasattr(repro.technology, "LEGACY_TECHNOLOGY")
        assert not hasattr(repro.mapper.ideal, "IdealBaselineResult")
        assert not hasattr(repro.TechnologyParams, "with_channel_capacity")
        assert not hasattr(repro.TechnologyParams, "with_turn_delay")
        assert not hasattr(repro.MapperOptions, "effective_channel_capacity")
        assert not hasattr(repro.MapperOptions(), "channel_capacity")
        assert not hasattr(repro.routing.RoutingPolicy(), "channel_capacity")

    def test_qasm_text_is_read_straight_into_a_circuit(self):
        # One reader: the lexer, the statement AST and the lowering pass are
        # gone, and what it refuses is a circuit error.
        import repro.qasm

        assert repro.qasm.__all__ == ["parse_qasm", "parse_qasm_file", "write_qasm"]
        assert importlib.util.find_spec("repro.qasm.lexer") is None
        assert importlib.util.find_spec("repro.qasm.ast") is None
        assert not hasattr(repro.QuantumCircuit, "from_program")
        assert issubclass(repro.QasmError, repro.CircuitError)

    def test_qidg_keeps_no_test_only_names(self):
        import repro.qidg
        import repro.qidg.uidg

        assert "build_uidg" not in repro.qidg.__all__
        assert not hasattr(repro.qidg.uidg, "build_uidg")
        assert not hasattr(repro.qidg.QIDG, "sources")


class TestCliListRoundTrip:
    def test_every_registry_name_appears_in_list_output(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for title, registry in REGISTRIES.items():
            assert title in output
            for name in registry.names():
                assert name in output, f"{title} entry {name!r} missing from `qspr-map list`"

    @pytest.mark.parametrize("title", sorted(REGISTRIES))
    def test_single_registry_filter(self, title, capsys):
        assert main(["list", "--registry", title]) == 0
        output = capsys.readouterr().out
        for name in REGISTRIES[title].names():
            assert name in output
