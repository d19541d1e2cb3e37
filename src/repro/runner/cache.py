"""Content-keyed disk cache of experiment-cell results.

Each executed cell is stored as one small JSON file named after (a prefix
of) the cell's :meth:`~repro.runner.spec.ExperimentSpec.cache_key`.  Because
the key hashes the normalised spec, the fabric geometry and the circuit
*content*, re-running an unchanged sweep is free while changing any knob —
or editing a QASM file — transparently re-executes the affected cells.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

from repro.runner.results import CellResult
from repro.runner.spec import CACHE_SCHEMA, ExperimentSpec


@dataclass(frozen=True)
class CacheInfo:
    """Summary of an on-disk :class:`ResultCache` (``qspr-map cache info``).

    Attributes:
        directory: The cache directory.
        entries: Number of cached cell records.
        total_bytes: Summed size of the record files.
        schema_version: The *current* cache-key schema
            (:data:`~repro.runner.spec.CACHE_SCHEMA`); records written under
            older schemas simply never match a key again and only cost disk.
        oldest_age_days: Age of the oldest record in days (0.0 when empty).
        newest_age_days: Age of the newest record in days (0.0 when empty).
    """

    directory: str
    entries: int = 0
    total_bytes: int = 0
    schema_version: int = CACHE_SCHEMA
    oldest_age_days: float = 0.0
    newest_age_days: float = 0.0

    def describe(self) -> str:
        """Human-readable multi-line account of the cache."""
        return "\n".join(
            [
                f"cache directory : {self.directory}",
                f"entries         : {self.entries}",
                f"size            : {self.total_bytes} bytes",
                f"schema version  : {self.schema_version}",
                f"oldest entry    : {self.oldest_age_days:.1f} days",
                f"newest entry    : {self.newest_age_days:.1f} days",
            ]
        )


class ResultCache:
    """Directory of ``<cache_key>.json`` cell records.

    Example::

        >>> import tempfile
        >>> from repro.runner import ExperimentSpec
        >>> cache = ResultCache(tempfile.mkdtemp())
        >>> spec = ExperimentSpec("[[5,1,3]]", mapper="ideal")
        >>> cache.load(spec) is None
        True
        >>> cache.store(spec, CellResult(circuit="[[5,1,3]]", mapper="ideal"))
        >>> cache.load(spec).from_cache
        True
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key[:40]}.json"

    def load(self, spec: ExperimentSpec) -> CellResult | None:
        """The cached result of ``spec``, or ``None`` on a miss.

        Served records have :attr:`~repro.runner.results.CellResult.from_cache`
        set.  Their measured columns describe the cached job, and their spec
        columns (:meth:`~repro.runner.results.CellResult.spec_columns`)
        describe ``spec``, which may spell the job's PMD another way.
        Corrupted or mismatching files are treated as misses.
        """
        key = spec.cache_key()
        path = self._path(key)
        if not path.exists():
            return None
        try:
            record = json.loads(path.read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(record, dict) or record.get("key") != key:
            return None  # not a record, a filename-prefix collision or a stale schema
        fields = record.get("result")
        if not isinstance(fields, dict):
            return None
        try:
            result = CellResult.from_dict(fields)
        except TypeError:  # a required field missing or a field mistyped
            return None
        return replace(result, **CellResult.spec_columns(spec), from_cache=True)

    def store(self, spec: ExperimentSpec, result: CellResult) -> None:
        """Persist ``result`` under ``spec``'s content key."""
        key = spec.cache_key()
        self.directory.mkdir(parents=True, exist_ok=True)
        record = {
            "key": key,
            "spec": spec.normalized().to_dict(),
            "result": result.to_dict(),
        }
        self._path(key).write_text(json.dumps(record, indent=2, sort_keys=True))

    def __len__(self) -> int:
        """Number of cached cell records.

        Example::

            >>> import tempfile
            >>> len(ResultCache(tempfile.mkdtemp()))
            0
        """
        if not self.directory.exists():
            return 0
        return sum(1 for _ in self.directory.glob("*.json"))

    def info(self, *, now: float | None = None) -> CacheInfo:
        """Inspect the cache without touching it (``qspr-map cache info``).

        Example::

            >>> import tempfile
            >>> ResultCache(tempfile.mkdtemp()).info().entries
            0
        """
        now = time.time() if now is None else now
        ages = []
        total_bytes = 0
        if self.directory.exists():
            for path in self.directory.glob("*.json"):
                stat = path.stat()
                total_bytes += stat.st_size
                ages.append(max(0.0, now - stat.st_mtime) / 86400.0)
        return CacheInfo(
            directory=str(self.directory),
            entries=len(ages),
            total_bytes=total_bytes,
            oldest_age_days=max(ages) if ages else 0.0,
            newest_age_days=min(ages) if ages else 0.0,
        )

    def prune(self, *, max_age_days: float | None = None, now: float | None = None) -> int:
        """Delete records older than ``max_age_days``; returns how many.

        Without ``max_age_days`` every record is removed (same as
        :meth:`clear`) — the cache otherwise grows without bound.

        Example::

            >>> import tempfile
            >>> ResultCache(tempfile.mkdtemp()).prune(max_age_days=30)
            0
        """
        if max_age_days is None:
            return self.clear()
        now = time.time() if now is None else now
        cutoff = now - max_age_days * 86400.0
        removed = 0
        if self.directory.exists():
            for path in self.directory.glob("*.json"):
                if path.stat().st_mtime < cutoff:
                    path.unlink()
                    removed += 1
        return removed

    def clear(self) -> int:
        """Delete every cached record; returns how many were removed.

        Example::

            >>> import tempfile
            >>> ResultCache(tempfile.mkdtemp()).clear()
            0
        """
        removed = 0
        if self.directory.exists():
            for path in self.directory.glob("*.json"):
                path.unlink()
                removed += 1
        return removed
