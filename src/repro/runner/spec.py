"""Experiment specification model: single cells and cross-product sweeps.

Every experiment in the paper — Table 1's placer comparison, Table 2's
mapper comparison, the m-sensitivity sweep — is a cross-product of
mappers × placers × fabrics × benchmark circuits × seed counts.  This module
gives that cross-product a declarative, hashable form:

* :class:`FabricCell` — the fabric axis as plain parameters (not a live
  :class:`~repro.fabric.fabric.Fabric`), so specs can be pickled to worker
  processes and hashed into cache keys.
* :class:`ExperimentSpec` — one cell of the grid: which circuit, which
  mapper, which placer, how many seeds, on which fabric.
* :class:`Sweep` — the grid itself; :meth:`Sweep.expand` produces the
  de-duplicated list of cells.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace
from itertools import product
from pathlib import Path
from typing import Sequence

from repro.circuits.circuit import QuantumCircuit
from repro.errors import MappingError, check_int
from repro.fabric.builder import FabricSpec, build_fabric, quale_fabric
from repro.fabric.fabric import Fabric
from repro.mapper.options import MapperOptions
from repro.pipeline.circuits import is_regular_file, resolve_circuit
from repro.pipeline.mappers import MAPPERS, resolve_mapper
from repro.pipeline.placers import PLACERS
from repro.pipeline.schedulers import SCHEDULERS
from repro.pipeline.technologies import TECHNOLOGIES, resolve_technology
from repro.routing.router import MeetingPoint
from repro.runner.results import scenario_suffix
from repro.technology import MAX_CHANNEL_CAPACITY


#: Legal ``meeting_point`` axis values (the :class:`MeetingPoint` enum values).
MEETING_POINTS: tuple[str, ...] = tuple(point.value for point in MeetingPoint)

#: Built-in mappers whose placement strategy is fixed: they take no placer /
#: seed axes, so those axes collapse during normalisation.  Mappers outside
#: this set — QSPR and any registered plugin — receive the full axes, since
#: a plugin mapper may honour every :class:`MapperOptions` knob.
PLACERLESS_MAPPERS: frozenset[str] = frozenset({"quale", "qpos", "ideal"})

#: Bump when the semantics of a cached record change; part of every cache key.
#: Schema 3: the scenario axes (technology, scheduler, routing features)
#: joined the spec, so schema-2 records — which could not distinguish
#: scenarios — are never served again.
#: Schema 4: records carry the event-driven core's loop counters
#: (``events_processed`` … ``event_issue_polls``); schema-3 records would
#: report them as zero, so they are never served again.
#: Schema 5: routing kernel v2 — records carry the shared-store and batched
#: -search counters, and the v2 cache changes the hit/miss/heap-pop counter
#: values of otherwise identical runs, so schema-4 records are retired.
#: Schema 6: same-channel legs planned under a dual-operand overlay no
#: longer count as route-cache misses, so schema-5 records are retired.
#: Schema 7: one route table per fabric, shared by every pass of a placement
#: search, changes the counters of MVFB and Monte-Carlo winners, and the
#: cross-job shared-hit counter left the record.
#: Schema 8: the event loop lost its arrival events and its barrier-level
#: event, which changes ``events_processed``, ``event_issue_polls`` and
#: ``event_skipped_polls`` of otherwise identical runs, so schema-7 records
#: are retired.
#: Schema 9: exact target distances, a descent bound and expanded-node read
#: sets change the kernel's hit/miss, search and heap-pop counters of
#: otherwise identical runs, so schema-8 records are retired.
#: Schema 10: a two-qubit plan fails at once when an operand's own channel
#: is full, which changes the hit/miss, search, heap-pop, wake-hit and
#: issue-poll counters of otherwise identical runs, so schema-9 records are
#: retired.
#: Schema 11: a two-qubit plan that fails after trap selection parks on the
#: congestion-change sentinel alone, which changes the wake-hit, issue-poll,
#: hit/miss, search and heap-pop counters of otherwise identical
#: capacity-1 runs, so schema-10 records are retired.
#: Schema 12: the router's batched candidate prefill is gone, so every leg
#: is a demand lookup; that changes the hit/miss, search, heap-pop and
#: relaxation counters of otherwise identical runs, and the batched-search
#: count left the record, so schema-11 records are retired.
#: Schema 13: barrier and forced-order runs skip polls and retries like
#: every other run, which changes the issue-poll, skipped-poll and wake-hit
#: counters of otherwise identical QUALE and MVFB runs, so schema-12
#: records are retired.
CACHE_SCHEMA = 13


@dataclass(frozen=True)
class FabricCell:
    """The fabric axis of a sweep, as constructor parameters.

    Keeping the fabric declarative (rather than holding a built
    :class:`~repro.fabric.fabric.Fabric`) makes specs picklable for the
    process pool and lets the cache key cover the exact geometry.

    Example::

        >>> FabricCell.quale().label
        'quale-12x22c3'
        >>> FabricCell(junction_rows=4, junction_cols=4).label
        '4x4c3'
    """

    junction_rows: int = 12
    junction_cols: int = 22
    channel_length: int = 3
    traps_per_channel: int = 2

    def __post_init__(self) -> None:
        # FabricSpec's geometry rules: a bad cell fails at enqueue, not in a worker.
        FabricSpec(**asdict(self))

    @classmethod
    def quale(cls) -> "FabricCell":
        """The 45×85-cell fabric used by all of the paper's experiments.

        Example::

            >>> FabricCell.quale().junction_cols
            22
        """
        return cls(junction_rows=12, junction_cols=22, channel_length=3, traps_per_channel=2)

    @property
    def is_quale(self) -> bool:
        """Whether these parameters describe the paper's QUALE fabric."""
        return self == FabricCell.quale()

    @property
    def label(self) -> str:
        """Short name used in result records and report columns.

        Example::

            >>> FabricCell(junction_rows=2, junction_cols=3, channel_length=2).label
            '2x3c2'
        """
        geometry = f"{self.junction_rows}x{self.junction_cols}c{self.channel_length}"
        return f"quale-{geometry}" if self.is_quale else geometry

    def build(self) -> Fabric:
        """Construct the described :class:`~repro.fabric.fabric.Fabric`.

        Example::

            >>> FabricCell(junction_rows=2, junction_cols=3).build().num_traps > 0
            True
        """
        if self.is_quale:
            return quale_fabric()
        return build_fabric(FabricSpec(name=self.label, **asdict(self)))


#: Shared default fabric (frozen, so safe as a dataclass default).
QUALE_FABRIC_CELL = FabricCell.quale()


@dataclass(frozen=True)
class ExperimentSpec:
    """One cell of an experiment grid.

    Attributes:
        circuit: A registered circuit name (e.g. ``"[[5,1,3]]"``) or the path
            of a QASM file (resolved through :data:`repro.pipeline.CIRCUITS`).
        mapper: A mapper-registry name — ``"qspr"``, ``"quale"``, ``"qpos"``,
            ``"ideal"`` or any plugin in :data:`repro.pipeline.MAPPERS`.
        placer: QSPR's placement algorithm — any name registered in
            :data:`repro.pipeline.PLACERS` (``"mvfb"``, ``"monte-carlo"``,
            ``"center"`` or a plugin); ``None`` for mappers that have no
            placer choice.
        num_seeds: MVFB's seed count ``m``, by default
            :attr:`MapperOptions.num_seeds <repro.mapper.options.MapperOptions>`
            (the paper's 25).  The Monte-Carlo placer runs this many
            placements when ``num_placements`` is not given.
        num_placements: Monte-Carlo placement runs ``m'`` (``None``: ``m``).
        random_seed: Seed of all randomised placement decisions.
        fabric: Target fabric parameters.
        technology: Name of the physical machine description in
            :data:`repro.pipeline.TECHNOLOGIES` (``"paper"``, ``"fast-turn"``,
            ``"cap-1"``, … or a registered custom PMD).
        scheduler: Name of the scheduling policy in
            :data:`repro.pipeline.SCHEDULERS` (``"qspr"``, ``"quale-alap"``,
            … or a registered plugin).  Consumed by scenario-driven mappers
            (QSPR and plugins); the QUALE/QPOS presets fix their own.
        turn_aware: Model turns during path selection (QSPR routing feature).
        meeting_point: Meeting-trap selection rule — ``"median"`` (QSPR),
            ``"destination"`` (QPOS/QUALE) or ``"center"``.
        channel_capacity: Channel-capacity override, at most
            :data:`~repro.technology.MAX_CHANNEL_CAPACITY`; ``None`` uses the
            technology's value.
        barrier_scheduling: Schedule level-by-level (ALAP) before mapping,
            as the prior tools do.

    Example::

        >>> spec = ExperimentSpec(circuit="[[5,1,3]]", mapper="qspr", placer="center")
        >>> spec.config_label()
        'qspr/center'
        >>> spec = ExperimentSpec("[[5,1,3]]", placer="center",
        ...                       technology="fast-turn", scheduler="quale-alap")
        >>> spec.config_label()
        'qspr/center+fast-turn+quale-alap'
    """

    circuit: str
    mapper: str = "qspr"
    placer: str | None = "mvfb"
    num_seeds: int = MapperOptions.num_seeds
    num_placements: int | None = None
    random_seed: int = 0
    fabric: FabricCell = QUALE_FABRIC_CELL
    technology: str = "paper"
    scheduler: str = "qspr"
    turn_aware: bool = True
    meeting_point: str = "median"
    channel_capacity: int | None = None
    barrier_scheduling: bool = False

    def __post_init__(self) -> None:
        # Types first: a payload's "false" is no boolean, nor 2.5 or true a count.
        for name in ("circuit", "mapper", "technology", "scheduler", "meeting_point"):
            if not isinstance(getattr(self, name), str):
                raise MappingError(
                    f"{name} must be a string, got {type(getattr(self, name)).__name__}"
                )
        for name in ("turn_aware", "barrier_scheduling"):
            if not isinstance(getattr(self, name), bool):
                raise MappingError(f"{name} must be a boolean, got {getattr(self, name)!r}")
        check_int("num_seeds", self.num_seeds)
        check_int("random_seed", self.random_seed, None)
        if self.num_placements is not None:
            check_int("num_placements", self.num_placements)
        if self.channel_capacity is not None:
            check_int("channel_capacity", self.channel_capacity, 1, MAX_CHANNEL_CAPACITY)
        if not isinstance(self.fabric, FabricCell):
            raise MappingError(f"fabric must be a FabricCell, got {self.fabric!r}")
        MAPPERS.resolve(self.mapper, error=MappingError)
        TECHNOLOGIES.resolve(self.technology, error=MappingError)
        SCHEDULERS.resolve(self.scheduler, error=MappingError)
        if self.meeting_point not in MEETING_POINTS:
            raise MappingError(
                f"unknown meeting point {self.meeting_point!r} "
                f"(known: {', '.join(MEETING_POINTS)})"
            )
        if self.uses_placer_axes:
            if self.placer is None:
                raise MappingError(
                    f"mapper {self.mapper!r} requires a placer; "
                    f"known placers: {', '.join(PLACERS.names())}"
                )
            PLACERS.resolve(self.placer, error=MappingError)

    @property
    def uses_placer_axes(self) -> bool:
        """Whether this cell's mapper consumes the placer/seed axes.

        True for ``"qspr"`` and for every plugin mapper; false only for the
        built-in presets with a fixed placement strategy
        (:data:`PLACERLESS_MAPPERS`).
        """
        return self.mapper not in PLACERLESS_MAPPERS

    @property
    def is_registered_circuit(self) -> bool:
        """Whether :attr:`circuit` names any registered circuit (QECC or plugin).

        Parameterised names (``"random-layered:q=8:seed=3"``) count as
        registered: the whole configuration lives in the name, so they hash
        into cache keys and travel to worker processes like plain names.
        """
        from repro.pipeline.circuits import is_circuit_name

        return is_circuit_name(self.circuit)

    def normalized(self) -> "ExperimentSpec":
        """A copy with axes that do not affect this mapper canonicalised.

        QUALE, QPOS and the ideal baseline are deterministic and have no
        placer, seed count or random seed; collapsing those axes lets
        :meth:`Sweep.expand` de-duplicate the grid and gives every
        equivalent cell the same cache key.

        Example::

            >>> a = ExperimentSpec("[[5,1,3]]", mapper="quale", placer="mvfb", num_seeds=9)
            >>> b = ExperimentSpec("[[5,1,3]]", mapper="quale", placer="center", num_seeds=2)
            >>> a.normalized() == b.normalized()
            True
        """
        if self.uses_placer_axes:
            if self.placer == "monte-carlo":
                return self
            if self.placer == "center":
                # Center placement is deterministic: no seeds, no extra runs.
                return replace(self, num_seeds=1, num_placements=None, random_seed=0)
            if self.placer == "mvfb":
                # MVFB ignores num_placements.
                return replace(self, num_placements=None)
            # Custom placers: nothing is known about which axes they read,
            # so keep every axis (conservative — no cache-key collisions).
            return self
        # The fixed presets (QUALE/QPOS/ideal) also pin their scheduler and
        # routing features, so those axes collapse too; the technology axis
        # stays — presets honour alternative PMD delays.
        return replace(
            self,
            placer=None,
            num_seeds=1,
            num_placements=None,
            random_seed=0,
            scheduler="qspr",
            turn_aware=True,
            meeting_point="median",
            channel_capacity=None,
            barrier_scheduling=False,
        )

    def config_label(self) -> str:
        """Short ``mapper[/placer][+scenario…]`` report column header.

        Non-default scenario axes are appended as ``+`` tags, so one sweep
        over technologies and schedulers yields distinct columns while the
        default (paper) scenario keeps its historical label.

        Example::

            >>> ExperimentSpec("[[5,1,3]]", mapper="ideal").config_label()
            'ideal'
            >>> ExperimentSpec("[[5,1,3]]", technology="cap-1",
            ...                barrier_scheduling=True).config_label()
            'qspr/mvfb+cap-1+barriers'
        """
        if self.mapper == "qspr" and self.placer is not None:
            label = f"{self.mapper}/{self.placer}"
        else:
            label = self.mapper
        return label + scenario_suffix(
            technology=self.technology,
            scheduler=self.scheduler,
            turn_aware=self.turn_aware,
            meeting_point=self.meeting_point,
            channel_capacity=self.channel_capacity,
            barrier_scheduling=self.barrier_scheduling,
        )

    # ------------------------------------------------------------------
    # Construction of the live objects.

    def build_circuit(self) -> QuantumCircuit:
        """Load the benchmark circuit or parse the QASM file.

        Resolution goes through :data:`repro.pipeline.CIRCUITS`: registered
        circuit names (the QECC suite and any plugins) take precedence,
        anything else is treated as a QASM path.

        Example::

            >>> ExperimentSpec("[[5,1,3]]").build_circuit().num_qubits
            5
        """
        return resolve_circuit(self.circuit)

    def build_fabric(self) -> Fabric:
        """Construct the target fabric (see :meth:`FabricCell.build`)."""
        return self.fabric.build()

    def mapper_options(self) -> MapperOptions:
        """The :class:`~repro.mapper.options.MapperOptions` of this cell.

        Available for every mapper that consumes the placer/seed axes
        (:attr:`uses_placer_axes`) — QSPR and plugin mappers alike.

        Example::

            >>> ExperimentSpec("[[5,1,3]]", placer="center").mapper_options().placer
            'center'
        """
        if not self.uses_placer_axes:
            raise MappingError(f"mapper {self.mapper!r} takes no options")
        return MapperOptions(
            technology=resolve_technology(self.technology),
            scheduler=self.scheduler,
            turn_aware_routing=self.turn_aware,
            meeting_point=MeetingPoint(self.meeting_point),
            channel_capacity=self.channel_capacity,
            barrier_scheduling=self.barrier_scheduling,
            placer=self.placer,
            num_seeds=self.num_seeds,
            num_placements=self.num_placements,
            random_seed=self.random_seed,
        )

    def build_mapper(self):
        """Instantiate this cell's mapper through the mapper registry.

        Placer-driven mappers (QSPR and plugins) receive the cell's full
        :meth:`mapper_options`.  The fixed built-in presets ignore every knob
        except the PMD, so they receive options that carry only the cell's
        technology.

        Example::

            >>> type(ExperimentSpec("[[5,1,3]]", mapper="qpos").build_mapper()).__name__
            'QposMapper'
        """
        if self.uses_placer_axes:
            options = self.mapper_options()
        else:
            options = MapperOptions(technology=resolve_technology(self.technology))
        return resolve_mapper(self.mapper, options)

    # ------------------------------------------------------------------
    # Serialisation and content keying.

    def to_dict(self) -> dict:
        """Plain-JSON representation (inverse of :meth:`from_dict`).

        Example::

            >>> ExperimentSpec.from_dict(ExperimentSpec("[[5,1,3]]").to_dict()).circuit
            '[[5,1,3]]'
        """
        record = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "fabric"}
        record["fabric"] = {
            f.name: getattr(self.fabric, f.name) for f in fields(self.fabric)
        }
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        data = dict(record)
        data["fabric"] = FabricCell(**data.get("fabric", {}))
        return cls(**data)

    def cache_key(self) -> str:
        """Content hash identifying this cell's result.

        The key covers the normalised spec, the fabric geometry, the
        technology's *parameters* (not its registry name, so a name
        re-registered with other values keys other results) and — for
        QASM-file circuits — the *content* of the file (not its path), so
        editing the circuit invalidates the cache while moving the file does
        not.

        Example::

            >>> key = ExperimentSpec("[[5,1,3]]").cache_key()
            >>> len(key), key == ExperimentSpec("[[5,1,3]]").cache_key()
            (64, True)
        """
        spec = self.normalized()
        payload = spec.to_dict()
        payload["schema"] = CACHE_SCHEMA
        payload["technology"] = resolve_technology(spec.technology).to_dict()
        if not spec.is_registered_circuit:
            if is_regular_file(spec.circuit):
                digest = hashlib.sha256(Path(spec.circuit).read_bytes()).hexdigest()
            else:  # keying a missing file is fine; running it will fail later
                digest = "missing"
            payload["circuit"] = {"qasm_sha256": digest}
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass(frozen=True)
class Sweep:
    """A cross-product experiment grid.

    The axes mirror the paper's evaluation and its ablations: circuits ×
    mappers × placers × fabrics × seed counts × random seeds, crossed with
    the scenario axes — technologies × schedulers × routing features
    (turn awareness, meeting point, channel capacity, barrier scheduling).
    Axes that do not apply to a mapper (e.g. placers or schedulers for
    QUALE) are collapsed during expansion, so the grid never runs the same
    configuration twice.  One sweep can therefore reproduce an entire
    Section-V ablation table in a single run.

    Example::

        >>> sweep = Sweep(circuits=("[[5,1,3]]", "[[7,1,3]]"),
        ...               mappers=("qspr", "quale"), placers=("mvfb", "center"))
        >>> len(sweep.expand())  # 2*(2 placers + 1 deduped quale cell)
        6
        >>> ablation = Sweep(circuits=("[[5,1,3]]",), placers=("center",),
        ...                  technologies=("paper", "fast-turn"),
        ...                  schedulers=("qspr", "qpos-dependents"))
        >>> ablation.size  # 2 technologies x 2 schedulers
        4
    """

    circuits: tuple[str, ...]
    mappers: tuple[str, ...] = ("qspr",)
    placers: tuple[str, ...] = ("mvfb",)
    num_seeds: tuple[int, ...] = (MapperOptions.num_seeds,)
    random_seeds: tuple[int, ...] = (0,)
    fabrics: tuple[FabricCell, ...] = (QUALE_FABRIC_CELL,)
    technologies: tuple[str, ...] = ("paper",)
    schedulers: tuple[str, ...] = ("qspr",)
    turn_aware: tuple[bool, ...] = (True,)
    meeting_points: tuple[str, ...] = ("median",)
    channel_capacities: "tuple[int | None, ...]" = (None,)
    barriers: tuple[bool, ...] = (False,)

    def __post_init__(self) -> None:
        for name, axis in (
            ("circuits", self.circuits),
            ("mappers", self.mappers),
            ("placers", self.placers),
            ("num_seeds", self.num_seeds),
            ("random_seeds", self.random_seeds),
            ("fabrics", self.fabrics),
            ("technologies", self.technologies),
            ("schedulers", self.schedulers),
            ("turn_aware", self.turn_aware),
            ("meeting_points", self.meeting_points),
            ("channel_capacities", self.channel_capacities),
            ("barriers", self.barriers),
        ):
            if not axis:
                raise MappingError(f"sweep axis {name!r} must not be empty")

    @property
    def size(self) -> int:
        """Number of distinct cells (after de-duplication).

        Example::

            >>> Sweep(circuits=("[[5,1,3]]",), mappers=("ideal",)).size
            1
        """
        return len(self.expand())

    def expand(self) -> tuple[ExperimentSpec, ...]:
        """The grid's distinct cells, in deterministic axis order.

        Example::

            >>> cells = Sweep(circuits=("[[5,1,3]]",), mappers=("qspr", "ideal")).expand()
            >>> [cell.mapper for cell in cells]
            ['qspr', 'ideal']
        """
        cells: dict[ExperimentSpec, None] = {}
        for (
            circuit,
            fabric,
            technology,
            scheduler,
            turn_aware,
            meeting_point,
            channel_capacity,
            barrier,
            mapper,
            placer,
            m,
            seed,
        ) in product(
            self.circuits,
            self.fabrics,
            self.technologies,
            self.schedulers,
            self.turn_aware,
            self.meeting_points,
            self.channel_capacities,
            self.barriers,
            self.mappers,
            self.placers,
            self.num_seeds,
            self.random_seeds,
        ):
            spec = ExperimentSpec(
                circuit=circuit,
                mapper=mapper,
                placer=placer if mapper not in PLACERLESS_MAPPERS else None,
                num_seeds=m,
                random_seed=seed,
                fabric=fabric,
                technology=technology,
                scheduler=scheduler,
                turn_aware=turn_aware,
                meeting_point=meeting_point,
                channel_capacity=channel_capacity,
                barrier_scheduling=barrier,
            ).normalized()
            cells.setdefault(spec, None)
        return tuple(cells)

    def to_dict(self) -> dict:
        """Plain-JSON representation (inverse of :meth:`from_dict`).

        Example::

            >>> Sweep.from_dict(Sweep(circuits=("ghz",)).to_dict()).circuits
            ('ghz',)
        """
        record = {
            f.name: list(getattr(self, f.name)) for f in fields(self) if f.name != "fabrics"
        }
        record["fabrics"] = [
            {f.name: getattr(fabric, f.name) for f in fields(fabric)}
            for fabric in self.fabrics
        ]
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "Sweep":
        """Rebuild a sweep from :meth:`to_dict` output (e.g. an API payload).

        Unknown keys raise :class:`~repro.errors.MappingError` so malformed
        service submissions fail at enqueue time, not at execution time.
        Seed counts and random seeds must be integers or a comma-separated
        string of them; a JSON ``2.5`` is refused, not truncated.
        """
        data = dict(record)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise MappingError(
                f"unknown sweep axes: {', '.join(unknown)} (known: {', '.join(sorted(known))})"
            )
        if "fabrics" in data:
            data["fabrics"] = tuple(
                fabric if isinstance(fabric, FabricCell) else FabricCell(**fabric)
                for fabric in data["fabrics"]
            )
        for name in ("circuits", "mappers", "placers", "technologies",
                     "schedulers", "meeting_points"):
            if name in data:
                data[name] = parse_axis(data[name])
        for name in ("num_seeds", "random_seeds"):
            if name in data:
                axis = data[name]
                if isinstance(axis, str):  # "2,5" — same style as the name axes
                    try:
                        axis = tuple(int(value) for value in parse_axis(axis))
                    except ValueError:
                        raise MappingError(
                            f"sweep axis {name!r} must be an integer, got {axis!r}"
                        ) from None
                elif not isinstance(axis, (list, tuple)):
                    axis = (axis,)
                for value in axis:
                    check_int(f"sweep axis {name!r}", value, None)
                data[name] = tuple(axis)
        for name in ("turn_aware", "barriers"):
            if name in data:
                data[name] = parse_bool_axis(data[name], name)
        if "channel_capacities" in data:
            data["channel_capacities"] = parse_capacity_axis(data["channel_capacities"])
        return cls(**data)


def parse_bool_axis(value, name: str = "axis") -> tuple[bool, ...]:
    """Normalise a boolean sweep axis from CLI/JSON spellings.

    Accepts a bare bool, a comma-separated string or a sequence; recognised
    spellings are ``1/0``, ``true/false``, ``yes/no``, ``on/off``::

        >>> parse_bool_axis("1,0")
        (True, False)
        >>> parse_bool_axis(True)
        (True,)
    """
    if isinstance(value, bool):
        return (value,)
    items = parse_axis(value) if isinstance(value, str) else tuple(value)
    spellings = {
        "1": True, "true": True, "yes": True, "on": True,
        "0": False, "false": False, "no": False, "off": False,
    }
    parsed: list[bool] = []
    for item in items:
        if isinstance(item, bool):
            parsed.append(item)
            continue
        key = str(item).strip().lower()
        if key not in spellings:
            raise MappingError(
                f"sweep axis {name!r} expects booleans (1/0, true/false), got {item!r}"
            )
        parsed.append(spellings[key])
    return tuple(parsed)


def parse_capacity_axis(value) -> "tuple[int | None, ...]":
    """Normalise the channel-capacity axis; ``default``/``none``/``0`` mean
    "use the technology's capacity"::

        >>> parse_capacity_axis("default,1,2")
        (None, 1, 2)
    """
    if value is None or isinstance(value, int):
        return (value or None,)  # a bare 0 means "default", like "0"
    items = parse_axis(value) if isinstance(value, str) else tuple(value)
    parsed: list[int | None] = []
    for item in items:
        if item is None:
            parsed.append(None)
            continue
        text = str(item).strip().lower()
        if text in ("default", "none", "tech", "0"):
            parsed.append(None)
            continue
        try:
            parsed.append(int(text))
        except ValueError as exc:
            raise MappingError(
                f"sweep axis 'channel_capacities' expects integers or "
                f"'default', got {item!r}"
            ) from exc
    return tuple(parsed)


def parse_axis(text: str | Sequence[str]) -> tuple[str, ...]:
    """Split a comma-separated CLI axis value into a tuple.

    Commas inside brackets do not split, so QECC benchmark names survive::

        >>> parse_axis("qspr, quale")
        ('qspr', 'quale')
        >>> parse_axis("[[5,1,3]],[[7,1,3]]")
        ('[[5,1,3]]', '[[7,1,3]]')
    """
    if not isinstance(text, str):
        return tuple(text)
    parts: list[str] = []
    depth = 0
    current = ""
    for char in text:
        if char == "," and depth == 0:
            parts.append(current)
            current = ""
            continue
        depth += {"[": 1, "]": -1}.get(char, 0)
        current += char
    parts.append(current)
    return tuple(part.strip() for part in parts if part.strip())
