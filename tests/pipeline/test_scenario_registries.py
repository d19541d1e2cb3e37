"""SCHEDULERS/TECHNOLOGIES registries and their resolution surfaces."""

from __future__ import annotations

import pytest

import repro
from repro.errors import MappingError, SchedulingError
from repro.pipeline import SCHEDULERS, TECHNOLOGIES, resolve_scheduler, resolve_technology
from repro.scheduling.policies import QsprPolicy, SchedulingPolicy
from repro.technology import PAPER_TECHNOLOGY, TechnologyParams


class TestSchedulerRegistry:
    def test_paper_policies_are_registered(self):
        assert set(SCHEDULERS.names()) >= {
            "qspr", "quale-alap", "qpos-dependents", "qpos-path-delay",
        }

    def test_resolve_by_name_and_object(self):
        by_name = resolve_scheduler("qspr")
        direct = QsprPolicy()
        assert isinstance(by_name, QsprPolicy)
        assert resolve_scheduler(direct) is direct

    def test_unknown_name_suggests(self):
        with pytest.raises(SchedulingError, match="did you mean 'qspr'"):
            resolve_scheduler("qsper")

    def test_invalid_selector_type(self):
        with pytest.raises(SchedulingError, match="scheduler must be"):
            resolve_scheduler(42)

    def test_registered_class_is_instantiated(self):
        @SCHEDULERS.register("fifo-test")
        class FifoPolicy(SchedulingPolicy):
            name = "fifo-test"

            def priorities(self, qidg, technology=PAPER_TECHNOLOGY):
                return {node: 0.0 for node in range(len(qidg))}

        try:
            policy = resolve_scheduler("fifo-test")
            assert isinstance(policy, FifoPolicy)
        finally:
            SCHEDULERS.unregister("fifo-test")

    def test_custom_scheduler_threads_through_facade(self, small_fabric_4x4):
        class ReverseProgramOrder(SchedulingPolicy):
            """Issue later program-order instructions first on ties."""

            name = "reverse-test"

            def priorities(self, qidg, technology=PAPER_TECHNOLOGY):
                return {node: float(node) for node in range(len(qidg))}

        SCHEDULERS.register("reverse-test", ReverseProgramOrder())
        try:
            result = repro.map_circuit(
                "ghz", small_fabric_4x4, placer="center", scheduler="reverse-test"
            )
            assert result.latency >= result.ideal_latency > 0
            assert "priority=reverse-test" in result.options.describe()
        finally:
            SCHEDULERS.unregister("reverse-test")


class TestTechnologyRegistry:
    def test_named_technologies_are_registered(self):
        assert TECHNOLOGIES.names() == (
            "paper", "fast-turn", "slow-turn", "slow-2q", "cap-1",
        )
        assert TECHNOLOGIES.get("paper") is PAPER_TECHNOLOGY
        assert TECHNOLOGIES.get("cap-1").channel_capacity == 1
        assert TECHNOLOGIES.get("fast-turn").turn_delay == 1.0
        assert TECHNOLOGIES.get("slow-2q").two_qubit_gate_delay == 300.0

    def test_no_two_built_in_pmds_are_equal(self):
        built_in = [TECHNOLOGIES.get(name) for name in TECHNOLOGIES.names()]
        assert len(set(built_in)) == len(built_in)

    def test_resolve_accepts_name_params_and_dict(self):
        assert resolve_technology("paper") is PAPER_TECHNOLOGY
        assert resolve_technology(PAPER_TECHNOLOGY) is PAPER_TECHNOLOGY
        custom = resolve_technology({"turn_delay": 2.5})
        assert custom.turn_delay == 2.5
        assert custom.move_delay == PAPER_TECHNOLOGY.move_delay

    def test_unknown_name_suggests(self):
        with pytest.raises(MappingError, match="did you mean 'paper'"):
            resolve_technology("papr")

    def test_invalid_dict_raises_mapping_error(self):
        with pytest.raises(MappingError, match="unknown technology parameters"):
            resolve_technology({"turn_dealy": 1.0})

    def test_invalid_selector_type(self):
        with pytest.raises(MappingError, match="technology must be"):
            resolve_technology(3.14)

    def test_from_dict_round_trip(self):
        params = TechnologyParams(turn_delay=4.0, channel_capacity=3)
        assert TechnologyParams.from_dict(params.to_dict()) == params

    def test_custom_registered_pmd_through_facade(self, small_fabric_4x4):
        TECHNOLOGIES.register(
            "test-pmd", TechnologyParams.from_dict({"turn_delay": 0.5})
        )
        try:
            fast = repro.map_circuit(
                "ghz", small_fabric_4x4, placer="center", technology="test-pmd"
            )
            paper = repro.map_circuit("ghz", small_fabric_4x4, placer="center")
            assert fast.latency < paper.latency  # cheaper turns, fewer us
        finally:
            TECHNOLOGIES.unregister("test-pmd")


class TestPublicExports:
    def test_registries_and_resolvers_exported(self):
        assert repro.SCHEDULERS is SCHEDULERS
        assert repro.TECHNOLOGIES is TECHNOLOGIES
        assert repro.resolve_scheduler is resolve_scheduler
        assert repro.resolve_technology is resolve_technology
        assert repro.SchedulingPolicy is SchedulingPolicy
