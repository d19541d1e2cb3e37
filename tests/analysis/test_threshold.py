"""Tests for the post-mapping error-threshold check."""

import pytest

from repro.analysis.error_model import DecoherenceModel
from repro.analysis.threshold import check_error_threshold
from repro.circuits.qecc import qecc_encoder
from repro.errors import ReproError
from repro.fabric.builder import small_fabric
from repro.mapper.options import MapperOptions
from repro.mapper.qspr import QsprMapper


@pytest.fixture(scope="module")
def mapped_result():
    return QsprMapper(MapperOptions(placer="center")).map(
        qecc_encoder("[[5,1,3]]"), small_fabric()
    )


class TestThresholdCheck:
    def test_loose_target_is_met(self, mapped_result):
        report = check_error_threshold(mapped_result, target_success_probability=0.5)
        assert report.meets_threshold
        assert report.latency_margin > 0
        assert report.latency_budget > report.latency

    def test_impossible_target_is_missed(self, mapped_result):
        model = DecoherenceModel(t2_us=5_000.0)
        report = check_error_threshold(
            mapped_result, target_success_probability=0.999, model=model
        )
        assert not report.meets_threshold
        assert report.latency_margin < 0

    def test_budget_consistent_with_verdict(self, mapped_result):
        for target in (0.5, 0.9, 0.99):
            report = check_error_threshold(mapped_result, target_success_probability=target)
            assert report.meets_threshold == (report.latency <= report.latency_budget or
                                              report.success_probability >= target)

    def test_budget_decreases_with_stricter_target(self, mapped_result):
        loose = check_error_threshold(mapped_result, target_success_probability=0.5)
        strict = check_error_threshold(mapped_result, target_success_probability=0.98)
        assert strict.latency_budget <= loose.latency_budget

    def test_summary_text(self, mapped_result):
        report = check_error_threshold(mapped_result)
        assert mapped_result.circuit_name in report.summary()
        assert "threshold" in report.summary()

    def test_invalid_target_rejected(self, mapped_result):
        with pytest.raises(ReproError):
            check_error_threshold(mapped_result, target_success_probability=1.5)
        with pytest.raises(ReproError):
            check_error_threshold(mapped_result, target_success_probability=0.0)

    def test_lower_latency_mapping_has_larger_margin(self, mapped_result):
        fast = QsprMapper(MapperOptions(num_seeds=2)).map(
            qecc_encoder("[[5,1,3]]"), small_fabric()
        )
        model = DecoherenceModel(t2_us=100_000.0)
        slow_report = check_error_threshold(mapped_result, model=model)
        fast_report = check_error_threshold(fast, model=model)
        if fast.latency < mapped_result.latency:
            assert fast_report.latency_margin >= slow_report.latency_margin
