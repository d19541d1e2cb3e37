"""CLI smoke tests for the sweep/report subcommands and the top-level parser."""

from __future__ import annotations

import json
import re

import pytest

import repro
from repro.cli import build_parser, main
from repro.pipeline import SCHEDULERS, TECHNOLOGIES

_SWEEP_ARGS = [
    "sweep",
    "--benchmarks", "[[5,1,3]],[[7,1,3]]",
    "--mappers", "qspr,quale",
    "--placers", "mvfb,monte-carlo",
    "--seeds", "2",
    "--fabric-rows", "4",
    "--fabric-cols", "4",
]


class TestSweepCommand:
    def test_sweep_writes_results_and_reuses_cache(self, tmp_path, capsys):
        args = _SWEEP_ARGS + ["--out", str(tmp_path / "out")]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "qspr/mvfb" in first and "qspr/monte-carlo" in first and "quale" in first
        assert "6 executed, 0 from cache" in first

        results_json = tmp_path / "out" / "results.json"
        results_csv = tmp_path / "out" / "results.csv"
        assert results_json.exists() and results_csv.exists()
        records = json.loads(results_json.read_text())
        assert len(records) == 6  # 2 circuits x (2 qspr placers + quale)
        assert {record["circuit"] for record in records} == {"[[5,1,3]]", "[[7,1,3]]"}

        # Second invocation: every cell served from the cache.
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "0 executed, 6 from cache" in second

    def test_no_cache_forces_execution(self, tmp_path, capsys):
        args = _SWEEP_ARGS + ["--out", str(tmp_path / "out")]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--no-cache"]) == 0
        assert "6 executed, 0 from cache" in capsys.readouterr().out

    def test_parallel_sweep_matches_sequential(self, tmp_path, capsys):
        assert main(_SWEEP_ARGS + ["--out", str(tmp_path / "a"), "--no-cache"]) == 0
        sequential = capsys.readouterr().out
        assert main(_SWEEP_ARGS + ["--out", str(tmp_path / "b"), "--no-cache", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        table = lambda text: text.split("Sweep cells")[0]  # noqa: E731 - latency table only
        assert table(sequential) == table(parallel)


    @pytest.mark.parametrize("kind", ["directory", "overlong-name"])
    def test_a_directory_or_overlong_name_exits_1(self, tmp_path, capsys, kind):
        # The result cache keys the circuit before any cell runs.
        circuit = str(tmp_path) if kind == "directory" else "x" * 300
        args = ["sweep", "--benchmarks", circuit, "--placers", "center",
                "--fabric-rows", "4", "--fabric-cols", "4", "--out", str(tmp_path / "out")]
        assert main(args) == 1
        assert "error: unknown circuit" in capsys.readouterr().err


class TestReportCommand:
    def test_report_renders_saved_results(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(_SWEEP_ARGS + ["--out", str(out)]) == 0
        capsys.readouterr()
        csv_copy = tmp_path / "copy.csv"
        assert main(["report", str(out / "results.json"), "--csv", str(csv_copy)]) == 0
        text = capsys.readouterr().out
        assert "Latency (us)" in text and "[[5,1,3]]" in text
        assert csv_copy.exists()

    def test_report_missing_file_errors(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "absent.json")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["directory", "non-utf8"])
    def test_an_unreadable_results_file_exits_1(self, tmp_path, capsys, kind):
        path = tmp_path / "sweep-out"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe[")
        assert main(["report", str(path)]) == 1
        assert "results file" in capsys.readouterr().err


class TestCacheCommand:
    def test_info_and_prune_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(_SWEEP_ARGS + ["--out", str(out)]) == 0
        capsys.readouterr()
        cache_dir = str(out / "cache")

        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        info = capsys.readouterr().out
        assert "entries         : 6" in info and "schema version" in info

        assert main(["cache", "prune", "--cache-dir", cache_dir,
                     "--max-age-days", "30"]) == 0
        assert "pruned 0 cache records" in capsys.readouterr().out

        assert main(["cache", "prune", "--cache-dir", cache_dir]) == 0
        pruned = capsys.readouterr().out
        assert "pruned 6 cache records (all)" in pruned
        assert "entries         : 0" in pruned


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_bare_invocation_needs_a_subcommand(self, capsys):
        # No alias: a missing subcommand is an argparse error, not ``run``.
        with pytest.raises(SystemExit) as excinfo:
            main(["--benchmark", "[[5,1,3]]", "--placer", "center"])
        assert excinfo.value.code == 2
        assert "latency" not in capsys.readouterr().out

    def test_explicit_run_subcommand(self, capsys):
        rc = main(["run", "--benchmark", "[[5,1,3]]", "--placer", "center"])
        assert rc == 0
        assert "latency" in capsys.readouterr().out

    @pytest.mark.parametrize(
        ("kind", "flag", "message"),
        [
            ("directory", "--benchmark", "error: unknown circuit"),
            ("overlong-name", "--benchmark", "error: unknown circuit"),
            ("directory", None, "error: QASM file not found"),
            ("overlong-name", None, "error: QASM file not found"),
        ],
        ids=["benchmark-directory", "benchmark-overlong", "qasm-directory", "qasm-overlong"],
    )
    def test_run_of_a_directory_or_overlong_name_exits_1(
        self, tmp_path, capsys, kind, flag, message
    ):
        circuit = str(tmp_path) if kind == "directory" else "x" * 300
        source = [flag, circuit] if flag else [circuit]
        assert main(["run", *source, "--placer", "center", "--fabric", "small"]) == 1
        assert message in capsys.readouterr().err

    def test_qasm_path_wins_over_registry_name(self, tmp_path, capsys):
        # A file that shares its name with a registered circuit ("ghz") must
        # be parsed as a file, not shadowed by the registry entry.
        qasm = tmp_path / "ghz"
        qasm.write_text("QUBIT a,0\nQUBIT b,0\nH a\nC-X a,b\n")
        rc = main(["run", str(qasm), "--placer", "center", "--fabric", "small"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mapping of ghz onto" in out  # the 2-qubit file's stem...
        assert "ghz_5" not in out  # ...not the built-in 5-qubit generator

    def test_list_subcommand_prints_all_registries(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for line in ("mappers", "placers", "fabrics", "circuits"):
            assert line in out
        assert "qspr" in out and "mvfb" in out and "quale" in out and "[[5,1,3]]" in out

    @pytest.mark.parametrize("command", ["run", "sweep", "submit"])
    def test_help_lists_every_scheduler_and_technology(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "1000")  # no line break inside a name list
        with pytest.raises(SystemExit):
            main([command, "--help"])
        help_text = capsys.readouterr().out
        for registry in (SCHEDULERS, TECHNOLOGIES):
            assert ", ".join(registry.names()) in help_text

    @pytest.mark.parametrize("command", ["run", "sweep", "submit"])
    def test_help_names_a_plugin_registered_after_import(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "1000")
        SCHEDULERS.register("probe-policy", SCHEDULERS.get("qspr"))
        TECHNOLOGIES.register("probe-pmd", TECHNOLOGIES.get("paper"))
        try:
            with pytest.raises(SystemExit):
                main([command, "--help"])
        finally:
            SCHEDULERS.unregister("probe-policy")
            TECHNOLOGIES.unregister("probe-pmd")
        help_text = capsys.readouterr().out
        assert "probe-policy" in help_text and "probe-pmd" in help_text

    def test_parser_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("command", ["bench", "replay", "loadgen"])
    def test_retired_command_is_not_a_subcommand(self, command, capsys):
        # Speed and service load are measured by perfbench/run.py.
        assert re.search(rf"\b{command}\b", build_parser().format_help()) is None
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err
