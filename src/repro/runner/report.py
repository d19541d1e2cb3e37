"""Aggregation of sweep results: JSON/CSV persistence and paper-style tables.

The writers keep the on-disk formats trivial — a JSON list of
:class:`~repro.runner.results.CellResult` dicts and a flat CSV with the same
columns — so external tooling (pandas, spreadsheets) can consume sweep output
directly.  The table formatters reuse
:func:`repro.analysis.tables.format_comparison_table`, which also renders the
benchmark harness's Table 1 / Table 2 reports, so every report in the repo
looks the same.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Sequence

from repro.analysis.tables import format_comparison_table
from repro.errors import ReproError
from repro.runner.results import CSV_FIELDS, CellResult


def write_json(results: Sequence[CellResult], path: str | Path) -> Path:
    """Write the results as a JSON list of records.

    Example::

        >>> import tempfile, os
        >>> path = os.path.join(tempfile.mkdtemp(), "r.json")
        >>> _ = write_json([CellResult(circuit="c", mapper="ideal")], path)
        >>> len(read_json(path))
        1
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    records = [result.to_dict() for result in results]
    path.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
    return path


def read_json(path: str | Path) -> list[CellResult]:
    """Load results written by :func:`write_json`.

    Raises:
        ReproError: If the file cannot be read, is not UTF-8 JSON or is not
            a list of records.

    Example::

        >>> import tempfile, os
        >>> path = os.path.join(tempfile.mkdtemp(), "r.json")
        >>> _ = write_json([CellResult(circuit="c", mapper="qpos")], path)
        >>> read_json(path)[0].mapper
        'qpos'
    """
    path = Path(path)
    try:
        records = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read results file {path}: {exc}") from exc
    if not isinstance(records, list) or not all(isinstance(r, dict) for r in records):
        raise ReproError(f"results file {path} must hold a JSON list of cell records")
    try:
        return [CellResult.from_dict(record) for record in records]
    except TypeError as exc:
        raise ReproError(f"results file {path} has malformed cell records: {exc}") from exc


def write_csv(results: Sequence[CellResult], path: str | Path) -> Path:
    """Write the results as a flat CSV (columns: ``CSV_FIELDS``).

    Example::

        >>> import tempfile, os
        >>> path = os.path.join(tempfile.mkdtemp(), "r.csv")
        >>> _ = write_csv([CellResult(circuit="c", mapper="ideal")], path)
        >>> Path(path).read_text().splitlines()[0].startswith("circuit,mapper")
        True
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for result in results:
            writer.writerow(result.to_dict())
    return path


def _config_labels(results: Sequence[CellResult]) -> list[str]:
    """Distinct ``mapper[/placer]`` labels, in first-seen order."""
    labels: dict[str, None] = {}
    for result in results:
        labels.setdefault(result.config_label, None)
    return list(labels)


def _row_groups(results: Sequence[CellResult]) -> dict[tuple, list[CellResult]]:
    """Results grouped into table rows, in first-seen order.

    A row is one (circuit, fabric, num_seeds, random_seed) combination; the
    fabric/seed components are included only when the sweep varied them, so
    single-fabric sweeps print the compact tables of the paper.
    """
    multi_fabric = len({r.fabric for r in results}) > 1
    multi_m = len({r.num_seeds for r in results if r.mapper == "qspr"}) > 1
    multi_seed = len({r.random_seed for r in results if r.mapper == "qspr"}) > 1
    groups: dict[tuple, list[CellResult]] = {}
    for result in results:
        key = [result.circuit]
        if multi_fabric:
            key.append(result.fabric)
        if multi_m:
            key.append(f"m={result.num_seeds}" if result.mapper == "qspr" else "")
        if multi_seed:
            key.append(f"seed={result.random_seed}" if result.mapper == "qspr" else "")
        groups.setdefault(tuple(key), []).append(result)
    return groups


def latency_table(results: Sequence[CellResult], title: str = "Latency (us)") -> str:
    """Circuits × configurations latency matrix, paper-table style.

    Example::

        >>> rows = [CellResult(circuit="c", mapper="ideal", latency=10.0),
        ...         CellResult(circuit="c", mapper="qpos", latency=25.0)]
        >>> print(latency_table(rows))  # doctest: +ELLIPSIS
        Latency (us)
        ============
        ...
    """
    labels = _config_labels(results)
    groups = _row_groups(results)
    rows = []
    for key, members in groups.items():
        by_label = {member.config_label: member for member in members}
        cells: list[object] = list(key)
        for label in labels:
            member = by_label.get(label)
            cells.append(member.latency if member is not None else "-")
        rows.append(cells)
    sample_key = next(iter(groups), ("circuit",))
    row_headers = ["circuit"] + ["" for _ in sample_key[1:]]
    return format_comparison_table(title, row_headers + labels, rows)


def cell_table(results: Sequence[CellResult], title: str = "Sweep cells") -> str:
    """Per-cell detail table: latency, overhead, runs, CPU time, cache state.

    Example::

        >>> print(cell_table([CellResult(circuit="c", mapper="ideal")]))
        ... # doctest: +ELLIPSIS
        Sweep cells
        ===========
        ...
    """
    headers = [
        "circuit",
        "config",
        "fabric",
        "m",
        "seed",
        "latency (us)",
        "ideal (us)",
        "runs",
        "CPU (ms)",
        "cached",
    ]
    rows = [
        (
            result.circuit,
            result.config_label,
            result.fabric,
            result.num_seeds,
            result.random_seed,
            result.latency,
            result.ideal_latency,
            result.placement_runs,
            round(result.cpu_seconds * 1000),
            "yes" if result.from_cache else "no",
        )
        for result in results
    ]
    return format_comparison_table(title, headers, rows)
