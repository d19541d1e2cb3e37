"""Public-API surface guarantees.

Run in CI as its own step: every name promised by the ``__all__`` of
``repro`` or any of its modules must be importable, and every plugin
registered in the six registries of
``repro.pipeline.REGISTRIES`` must round-trip through the ``qspr-map list``
subcommand.
"""

from __future__ import annotations

import importlib
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
