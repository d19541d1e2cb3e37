"""Tests for the analysis utilities (metrics and tables)."""

import pytest

from repro.analysis.metrics import latency_breakdown
from repro.analysis.tables import TextTable, format_comparison_table
from repro.mapper.options import MapperOptions
from repro.mapper.qspr import QsprMapper


@pytest.fixture(scope="module")
def mapped_result():
    from repro.circuits.qecc import qecc_encoder
    from repro.fabric.builder import small_fabric

    return QsprMapper(MapperOptions(placer="center")).map(
        qecc_encoder("[[5,1,3]]"), small_fabric()
    )


class TestLatencyBreakdown:
    def test_totals_positive(self, mapped_result):
        breakdown = latency_breakdown(mapped_result)
        assert breakdown.latency == mapped_result.latency
        assert breakdown.total_gate_time > 0
        assert breakdown.total_routing_time >= 0
        assert breakdown.overhead >= 0

    def test_shares_within_unit_interval(self, mapped_result):
        breakdown = latency_breakdown(mapped_result)
        assert 0.0 <= breakdown.routing_share <= 1.0
        assert 0.0 <= breakdown.congestion_share <= 1.0


class TestTables:
    def test_alignment_and_content(self):
        table = TextTable(["name", "value"])
        table.add_row("alpha", 1.0)
        table.add_row("b", 20.5)
        rendered = table.render()
        lines = rendered.splitlines()
        assert len(lines) == 4
        assert "alpha" in rendered and "20.5" in rendered
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_wrong_cell_count(self):
        table = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_format_comparison_table(self):
        text = format_comparison_table("Title", ["x"], [[1], [2]])
        assert text.startswith("Title\n=====")
        assert "2" in text
