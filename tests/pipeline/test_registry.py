"""Behaviour of the generic plugin registry."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.pipeline.registry import Registry, RegistryError


@pytest.fixture
def registry() -> Registry:
    reg = Registry("widget")
    reg.register("alpha", object())
    reg.register("beta", object())
    return reg


class TestRegistration:
    def test_direct_registration_returns_object(self):
        reg = Registry("widget")
        marker = object()
        assert reg.register("x", marker) is marker
        assert reg.get("x") is marker

    def test_decorator_registration_returns_target(self):
        reg = Registry("widget")

        @reg.register("plug")
        def plug():
            return 42

        assert plug() == 42  # the decorator hands the function back unchanged
        assert reg.get("plug") is plug

    def test_duplicate_name_errors(self, registry):
        with pytest.raises(RegistryError, match="already registered"):
            registry.register("alpha", object())

    def test_duplicate_error_is_a_repro_error(self, registry):
        with pytest.raises(ReproError):
            registry.register("alpha", object())

    def test_overwrite_replaces(self, registry):
        replacement = object()
        registry.register("alpha", replacement, overwrite=True)
        assert registry.get("alpha") is replacement

    def test_rejects_empty_and_non_string_names(self):
        reg = Registry("widget")
        with pytest.raises(RegistryError):
            reg.register("", object())
        with pytest.raises(RegistryError):
            reg.register(3, object())

    def test_unregister(self, registry):
        registry.unregister("alpha")
        assert "alpha" not in registry
        with pytest.raises(KeyError):
            registry.unregister("alpha")


class TestLookup:
    def test_unknown_name_raises_keyerror_with_suggestion(self, registry):
        with pytest.raises(KeyError) as excinfo:
            registry.get("alpa")
        message = excinfo.value.args[0]
        assert "unknown widget 'alpa'" in message
        assert "did you mean 'alpha'?" in message
        assert "beta" in message  # known names are listed

    def test_unknown_name_without_close_match(self, registry):
        with pytest.raises(KeyError) as excinfo:
            registry.get("zzzzzz")
        assert "did you mean" not in excinfo.value.args[0]

    def test_suggest_handles_non_strings(self, registry):
        assert registry.suggest(None) is None

    def test_names_preserve_registration_order(self, registry):
        registry.register("aardvark", object())
        assert registry.names() == ("alpha", "beta", "aardvark")

    def test_container_protocol(self, registry):
        assert "alpha" in registry and "gamma" not in registry
        assert len(registry) == 2
        assert list(registry) == ["alpha", "beta"]
        assert [name for name, _ in registry.items()] == ["alpha", "beta"]


class TestBuiltinRegistries:
    def test_builtin_registries_are_populated(self):
        from repro.pipeline import (
            CIRCUITS,
            FABRICS,
            MAPPERS,
            PLACERS,
            REGISTRIES,
            SCHEDULERS,
            TECHNOLOGIES,
        )

        assert set(REGISTRIES) == {
            "mappers", "placers", "fabrics", "circuits", "schedulers",
            "technologies",
        }
        assert {"qspr", "quale", "qpos", "ideal"} <= set(MAPPERS.names())
        assert {"mvfb", "monte-carlo", "center"} <= set(PLACERS.names())
        assert {"quale", "small", "linear", "grid"} <= set(FABRICS.names())
        assert {"[[5,1,3]]", "[[23,1,7]]", "ghz", "random"} <= set(CIRCUITS.names())
        assert {"qspr", "quale-alap", "qpos-dependents", "qpos-path-delay"} <= set(
            SCHEDULERS.names()
        )
        assert {"paper", "fast-turn", "slow-2q", "cap-1"} <= set(
            TECHNOLOGIES.names()
        )

    def test_placer_typo_gets_suggestion(self):
        from repro.pipeline import PLACERS

        with pytest.raises(KeyError, match="did you mean 'center'"):
            PLACERS.get("centre")
