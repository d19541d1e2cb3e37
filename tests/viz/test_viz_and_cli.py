"""Tests for the ASCII visualisations and the command-line interface."""

import pytest

from repro.circuits.qecc import qecc_encoder
from repro.cli import build_parser, main
from repro.fabric.builder import small_fabric
from repro.mapper.options import MapperOptions
from repro.mapper.qspr import QsprMapper
from repro.placement.center import CenterPlacer
from repro.viz.fabric_ascii import fabric_legend, render_fabric, render_placement
from repro.viz.trace_render import render_gantt


@pytest.fixture(scope="module")
def mapped():
    fabric = small_fabric()
    circuit = qecc_encoder("[[5,1,3]]")
    result = QsprMapper(MapperOptions(placer="center")).map(circuit, fabric)
    return fabric, circuit, result


class TestFabricRendering:
    def test_dimensions_with_border(self, mapped):
        fabric, _, _ = mapped
        lines = render_fabric(fabric).splitlines()
        assert len(lines) == fabric.cell_rows + 2
        assert all(len(line) == fabric.cell_cols + 2 for line in lines)

    def test_without_border(self, mapped):
        fabric, _, _ = mapped
        lines = render_fabric(fabric, border=False).splitlines()
        assert len(lines) == fabric.cell_rows

    def test_placement_overlay(self, mapped):
        fabric, circuit, _ = mapped
        placement = CenterPlacer(fabric).place(circuit)
        with_qubits = render_placement(fabric, placement)
        assert with_qubits != render_fabric(fabric)

    def test_legend(self):
        legend = fabric_legend()
        assert "junction" in legend and "trap" in legend


class TestTraceRendering:
    def test_gantt_one_row_per_qubit(self, mapped):
        _, circuit, result = mapped
        chart = render_gantt(result.trace, width=40)
        lines = [line for line in chart.splitlines() if "|" in line]
        assert len(lines) == circuit.num_qubits

    def test_gantt_empty_trace(self):
        from repro.sim.trace import ControlTrace

        assert "empty" in render_gantt(ControlTrace())


class TestCli:
    def test_parser_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_benchmark_run(self, capsys):
        rc = main(["run", "--benchmark", "[[5,1,3]]", "--placer", "center"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "latency" in out

    def test_qasm_file_run(self, tmp_path, capsys):
        path = tmp_path / "bell.qasm"
        path.write_text("QUBIT a,0\nQUBIT b,0\nH a\nC-X a,b\n")
        rc = main(
            ["run", str(path), "--placer", "center", "--fabric-rows", "3", "--fabric-cols", "4"]
        )
        assert rc == 0
        assert "QSPR" in capsys.readouterr().out

    def test_missing_file_errors(self, capsys):
        rc = main(["run", "/nonexistent/file.qasm"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_quale_mapper_and_trace(self, capsys):
        rc = main(["run", "--benchmark", "[[5,1,3]]", "--mapper", "quale", "--show-trace"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "QUALE" in out
        assert "legend" in out
