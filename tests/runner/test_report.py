"""JSON/CSV persistence and table rendering of sweep results."""

from __future__ import annotations

import csv

import pytest

from repro.errors import ReproError
from repro.runner import CellResult, cell_table, latency_table, read_json, write_csv, write_json


def _results() -> list[CellResult]:
    return [
        CellResult(circuit="[[5,1,3]]", mapper="ideal", latency=510.0, ideal_latency=510.0),
        CellResult(
            circuit="[[5,1,3]]", mapper="qspr", placer="mvfb", num_seeds=2,
            latency=612.0, ideal_latency=510.0, placement_runs=12,
        ),
        CellResult(circuit="[[7,1,3]]", mapper="ideal", latency=510.0, ideal_latency=510.0),
        CellResult(
            circuit="[[7,1,3]]", mapper="qspr", placer="mvfb", num_seeds=2,
            latency=648.0, ideal_latency=510.0, placement_runs=12,
        ),
    ]


class TestPersistence:
    def test_json_roundtrip(self, tmp_path):
        path = write_json(_results(), tmp_path / "out" / "results.json")
        loaded = read_json(path)
        assert [r.to_dict() for r in loaded] == [r.to_dict() for r in _results()]

    def test_csv_columns_and_rows(self, tmp_path):
        path = write_csv(_results(), tmp_path / "results.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4
        assert rows[1]["circuit"] == "[[5,1,3]]"
        assert rows[1]["mapper"] == "qspr"
        assert float(rows[1]["latency"]) == 612.0

    def test_from_dict_ignores_unknown_keys(self):
        record = _results()[0].to_dict() | {"future_field": 1}
        assert CellResult.from_dict(record).circuit == "[[5,1,3]]"

    def test_read_json_rejects_corrupt_and_non_list_files(self, tmp_path):
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{not json")
        with pytest.raises(ReproError):
            read_json(corrupt)
        non_list = tmp_path / "dict.json"
        non_list.write_text('{"circuit": "c"}')
        with pytest.raises(ReproError):
            read_json(non_list)

    @pytest.mark.parametrize(
        "kind", ["missing", "directory", "non-utf8", "non-record-item", "missing-field"]
    )
    def test_read_json_raises_repro_error(self, tmp_path, kind):
        path = tmp_path / "results.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "non-utf8":
            path.write_bytes(b"\xff\xfe[")
        elif kind == "non-record-item":
            path.write_text('[{"circuit": "c", "mapper": "ideal"}, 3]')
        elif kind == "missing-field":
            path.write_text('[{"latency": 1.0}]')
        with pytest.raises(ReproError, match="results file"):
            read_json(path)


class TestTables:
    def test_latency_table_is_a_circuit_by_config_matrix(self):
        table = latency_table(_results())
        lines = table.splitlines()
        assert "ideal" in lines[2] and "qspr/mvfb" in lines[2]
        body = "\n".join(lines[4:])
        assert "[[5,1,3]]" in body and "612.0" in body
        assert "[[7,1,3]]" in body and "648.0" in body

    def test_missing_configs_render_as_dash(self):
        results = _results()[:3]  # [[7,1,3]] has no qspr cell
        table = latency_table(results)
        row = next(line for line in table.splitlines() if "[[7,1,3]]" in line)
        assert row.rstrip().endswith("-")

    def test_cell_table_reports_cache_state(self):
        results = _results()
        results[0].from_cache = True
        table = cell_table(results)
        assert "yes" in table and "no" in table

    def test_improvement_over(self):
        ideal, qspr = _results()[0], _results()[1]
        assert qspr.improvement_over(765.0) == 20.0
        assert qspr.improvement_over(ideal) < 0  # slower than the bound
        assert qspr.improvement_over(0.0) == 0.0
