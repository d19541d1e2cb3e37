"""Batch experiment runner: declarative sweeps over the mapping pipeline.

The paper's evaluation is a cross-product of mappers × placers × fabrics ×
benchmark circuits × seed counts.  This subpackage runs such grids end to
end:

* :mod:`repro.runner.spec` — :class:`Sweep` / :class:`ExperimentSpec`, the
  declarative grid model.
* :mod:`repro.runner.executor` — :func:`run_sweep` / :func:`execute_cell`,
  process-parallel execution with a deterministic sequential fallback.
* :mod:`repro.runner.cache` — :class:`ResultCache`, a content-keyed disk
  cache that makes re-runs of unchanged cells free.
* :mod:`repro.runner.results` — :class:`CellResult`, the flat record every
  cell produces.
* :mod:`repro.runner.report` — JSON/CSV writers and paper-style tables.

A typical batch experiment::

    from repro.runner import ResultCache, Sweep, run_sweep
    from repro.runner.report import latency_table

    sweep = Sweep(
        circuits=("[[5,1,3]]", "[[7,1,3]]"),
        mappers=("qspr", "quale"),
        placers=("mvfb", "monte-carlo"),
    )
    run = run_sweep(sweep, cache=ResultCache("sweep-out/cache"), workers=4)
    print(latency_table(run.results))

The same engine backs the ``qspr-map sweep`` and ``qspr-map report`` CLI
subcommands and the ``benchmarks/`` harness.
"""

from __future__ import annotations

from repro.runner.cache import CacheInfo, ResultCache
from repro.runner.executor import SweepRun, execute_cell, map_spec, run_sweep
from repro.runner.report import cell_table, latency_table, read_json, write_csv, write_json
from repro.runner.results import CellResult, scenario_suffix
from repro.runner.spec import (
    CACHE_SCHEMA,
    MAPPER_NAMES,
    MEETING_POINTS,
    PLACER_NAMES,
    SCHEDULER_NAMES,
    TECHNOLOGY_NAMES,
    ExperimentSpec,
    FabricCell,
    Sweep,
    parse_axis,
    parse_bool_axis,
    parse_capacity_axis,
)

__all__ = [
    "CACHE_SCHEMA",
    "CacheInfo",
    "MAPPER_NAMES",
    "MEETING_POINTS",
    "PLACER_NAMES",
    "SCHEDULER_NAMES",
    "TECHNOLOGY_NAMES",
    "CellResult",
    "ExperimentSpec",
    "FabricCell",
    "ResultCache",
    "Sweep",
    "SweepRun",
    "cell_table",
    "execute_cell",
    "latency_table",
    "map_spec",
    "parse_axis",
    "parse_bool_axis",
    "parse_capacity_axis",
    "read_json",
    "run_sweep",
    "scenario_suffix",
    "write_csv",
    "write_json",
]
