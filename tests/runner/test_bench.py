"""Tests for the performance benchmark suite and the ``bench`` subcommand."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.runner.bench import (
    BENCH_SCHEMA,
    LARGEST_CIRCUIT,
    BenchCase,
    QUICK_CASES,
    format_perf_report,
    run_perf_suite,
    time_case,
)


class TestTimeCase:
    def test_records_timing_and_counters(self):
        record = time_case(BenchCase("[[5,1,3]]", fabric="small"), repeats=1)
        assert record["circuit"] == "[[5,1,3]]"
        assert record["qubits"] == 5
        assert record["instructions"] == 14
        assert record["wall_seconds"] > 0
        assert 0 <= record["routing_seconds"] <= record["wall_seconds"]
        assert record["latency_us"] >= record["ideal_latency_us"] > 0
        assert record["dijkstra_calls"] > 0
        assert record["heap_pops"] >= record["edge_relaxations"] >= 0

    def test_largest_circuit_is_bundled(self):
        from repro.circuits.qecc import BENCHMARK_NAMES, qecc_encoder

        assert LARGEST_CIRCUIT in BENCHMARK_NAMES
        largest = qecc_encoder(LARGEST_CIRCUIT)
        assert largest.num_qubits == max(
            qecc_encoder(name).num_qubits for name in BENCHMARK_NAMES
        )


class TestRunPerfSuite:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("bench") / "BENCH_perf.json"
        report = run_perf_suite(quick=True, repeats=1, out=out)
        return report, out

    def test_schema_and_modes(self, report):
        data, _ = report
        assert data["schema"] == BENCH_SCHEMA
        assert data["mode"] == "quick"
        assert len(data["cases"]) == len(QUICK_CASES)
        assert "speedups" not in data

    def test_written_file_round_trips(self, report):
        data, out = report
        assert json.loads(out.read_text()) == data

    def test_report_formats_as_tables(self, report):
        data, _ = report
        text = format_perf_report(data)
        assert "Pipeline timings" in text
        assert "Service loadgen" in text
        for case in data["cases"]:
            assert case["circuit"] in text


class TestBenchCli:
    def test_bench_subcommand_writes_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_perf.json"
        assert main(["bench", "--quick", "--repeats", "1", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "Pipeline timings" in stdout
        assert str(out) in stdout
        data = json.loads(out.read_text())
        assert data["schema"] == BENCH_SCHEMA

    def test_bench_rejects_bad_repeats(self, tmp_path, capsys):
        assert main(["bench", "--quick", "--repeats", "0"]) == 1
        assert "repeats" in capsys.readouterr().err
