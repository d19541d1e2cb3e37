"""Structured, serialisable records of executed experiment cells.

A :class:`~repro.mapper.result.MappingResult` holds live objects (placements,
traces, per-instruction records) that are expensive to move between processes
and meaningless to persist.  :class:`CellResult` is the flat summary the
runner stores, caches and aggregates: everything the paper's tables report,
as plain JSON-compatible scalars.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.mapper.result import MappingResult
    from repro.runner.spec import ExperimentSpec


def scenario_suffix(
    *,
    technology: str = "paper",
    scheduler: str = "qspr",
    turn_aware: bool = True,
    meeting_point: str = "median",
    channel_capacity: "int | None" = None,
    barrier_scheduling: bool = False,
) -> str:
    """``+``-joined tags of the non-default scenario axes (``""`` for paper).

    Appended to ``mapper[/placer]`` config labels by specs and cell results,
    so scenario sweeps produce distinct report columns while the default
    paper scenario keeps its historical labels.

    Example::

        >>> scenario_suffix(technology="fast-turn", barrier_scheduling=True)
        '+fast-turn+barriers'
        >>> scenario_suffix()
        ''
    """
    tags: list[str] = []
    if technology != "paper":
        tags.append(technology)
    if scheduler != "qspr":
        tags.append(scheduler)
    if not turn_aware:
        tags.append("no-turn-aware")
    if meeting_point != "median":
        tags.append(f"meet-{meeting_point}")
    if channel_capacity is not None:
        tags.append(f"cap{channel_capacity}")
    if barrier_scheduling:
        tags.append("barriers")
    return "".join(f"+{tag}" for tag in tags)

#: The JSON values each kind of :class:`CellResult` field accepts.
_JSON_TYPES: dict[str, type | tuple[type, ...]] = {
    "str": str,
    "int": int,
    "float": (int, float),
    "bool": bool,
}

#: Column order of the CSV writer (and of ``CellResult`` itself).
CSV_FIELDS: tuple[str, ...] = (
    "circuit",
    "mapper",
    "placer",
    "fabric",
    "num_seeds",
    "random_seed",
    "technology",
    "scheduler",
    "turn_aware",
    "meeting_point",
    "channel_capacity",
    "barrier_scheduling",
    "latency",
    "ideal_latency",
    "placement_runs",
    "direction",
    "total_moves",
    "total_turns",
    "total_congestion_delay",
    "cpu_seconds",
    "routing_seconds",
    "route_cache_hits",
    "route_cache_misses",
    "route_cache_hit_rate",
    "dijkstra_calls",
    "heap_pops",
    "edge_relaxations",
    "events_processed",
    "event_peak_heap",
    "event_wake_hits",
    "event_skipped_polls",
    "event_issue_polls",
    "from_cache",
)


@dataclass
class CellResult:
    """Flat summary of one mapped experiment cell.

    Attributes:
        circuit: Circuit identifier (benchmark name or QASM path).
        mapper: Mapper name (``qspr``/``quale``/``qpos``/``ideal``).
        placer: Placer name, or ``"-"`` for mappers without one.
        fabric: Fabric label (see :attr:`repro.runner.spec.FabricCell.label`).
        num_seeds: MVFB seed count ``m`` the cell ran with.
        random_seed: Random seed of the cell.
        technology: Technology (PMD) registry name the cell ran under.
        scheduler: Scheduling-policy registry name (normalised: ``"qspr"``
            for the fixed presets, which pin their own policy).
        turn_aware: Whether path selection modelled turns.
        meeting_point: Meeting-trap selection rule of the cell.
        channel_capacity: Channel-capacity override (``None`` = technology
            default).
        barrier_scheduling: Whether scheduling was level-by-level (ALAP).
        latency: Execution latency in microseconds (the figure of merit).
        ideal_latency: Zero-routing/zero-congestion lower bound.
        placement_runs: Placement runs the placer performed.
        direction: Winning MVFB pass (``forward``/``backward``; ``-`` when
            not applicable).
        total_moves: Qubit moves of the winning pass.
        total_turns: Qubit turns of the winning pass.
        total_congestion_delay: Summed busy-queue waiting time.
        cpu_seconds: Mapping CPU time (of the original execution, for cached
            records).
        routing_seconds: Wall-clock time the winning pass spent planning
            routes inside the router.
        route_cache_hits: Route-cache hits of the winning pass.
        route_cache_misses: Route-cache misses of the winning pass.
        route_cache_hit_rate: Hit fraction of the route cache (0.0–1.0).
        dijkstra_calls: Shortest-route searches executed by the winning pass.
        heap_pops: Heap extractions over those searches.
        edge_relaxations: Distance improvements over those searches.
        events_processed: Simulation events popped off the event heap.
        event_peak_heap: Largest number of pending events at once.
        event_wake_hits: Parked instructions woken by targeted wake keys.
        event_skipped_polls: Event timestamps whose issue poll was skipped
            because no blocker changed (0 for forced-order and barrier
            runs, which poll at every event timestamp).
        event_issue_polls: Times the issue loop was entered.
        from_cache: Whether this record was served from the result cache.

    Example::

        >>> row = CellResult(circuit="[[5,1,3]]", mapper="ideal", latency=18.0,
        ...                  ideal_latency=18.0)
        >>> row.overhead_vs_ideal
        0.0
    """

    circuit: str
    mapper: str
    placer: str = "-"
    fabric: str = "quale-12x22c3"
    num_seeds: int = 1
    random_seed: int = 0
    technology: str = "paper"
    scheduler: str = "qspr"
    turn_aware: bool = True
    meeting_point: str = "median"
    channel_capacity: int | None = None
    barrier_scheduling: bool = False
    latency: float = 0.0
    ideal_latency: float = 0.0
    placement_runs: int = 0
    direction: str = "-"
    total_moves: int = 0
    total_turns: int = 0
    total_congestion_delay: float = 0.0
    cpu_seconds: float = 0.0
    routing_seconds: float = 0.0
    route_cache_hits: int = 0
    route_cache_misses: int = 0
    route_cache_hit_rate: float = 0.0
    dijkstra_calls: int = 0
    heap_pops: int = 0
    edge_relaxations: int = 0
    events_processed: int = 0
    event_peak_heap: int = 0
    event_wake_hits: int = 0
    event_skipped_polls: int = 0
    event_issue_polls: int = 0
    from_cache: bool = False

    @classmethod
    def from_mapping(cls, spec: "ExperimentSpec", result: "MappingResult") -> "CellResult":
        """Summarise a live :class:`~repro.mapper.result.MappingResult`.

        Example::

            >>> from repro.runner import ExperimentSpec, execute_cell
            >>> cell = execute_cell(ExperimentSpec("[[5,1,3]]", mapper="quale"))
            >>> cell.mapper, cell.latency >= cell.ideal_latency
            ('quale', True)
        """
        # Normalising drops the axes a preset mapper pins (placer, scheduler,
        # routing features), so an explicit un-normalised ideal/quale spec
        # still reports "-" and the default scenario tags.
        normalized = spec.normalized()
        return cls(
            circuit=spec.circuit,
            mapper=spec.mapper,
            placer=normalized.placer or "-",
            fabric=spec.fabric.label,
            num_seeds=spec.num_seeds,
            random_seed=spec.random_seed,
            technology=normalized.technology,
            scheduler=normalized.scheduler,
            turn_aware=normalized.turn_aware,
            meeting_point=normalized.meeting_point,
            channel_capacity=normalized.channel_capacity,
            barrier_scheduling=normalized.barrier_scheduling,
            latency=result.latency,
            ideal_latency=result.ideal_latency,
            placement_runs=result.placement_runs,
            direction=result.direction,
            total_moves=result.total_moves,
            total_turns=result.total_turns,
            total_congestion_delay=result.total_congestion_delay,
            cpu_seconds=result.cpu_seconds,
            routing_seconds=result.routing_seconds,
            route_cache_hits=result.routing_stats.cache_hits,
            route_cache_misses=result.routing_stats.cache_misses,
            route_cache_hit_rate=result.routing_stats.cache_hit_rate,
            dijkstra_calls=result.routing_stats.dijkstra_calls,
            heap_pops=result.routing_stats.heap_pops,
            edge_relaxations=result.routing_stats.edge_relaxations,
            events_processed=result.event_stats.events_processed,
            event_peak_heap=result.event_stats.peak_heap_size,
            event_wake_hits=result.event_stats.wake_hits,
            event_skipped_polls=result.event_stats.skipped_polls,
            event_issue_polls=result.event_stats.issue_polls,
        )

    @property
    def config_label(self) -> str:
        """``mapper[/placer][+scenario…]`` — the report column of this cell.

        Example::

            >>> CellResult(circuit="c", mapper="qspr", placer="mvfb").config_label
            'qspr/mvfb'
            >>> CellResult(circuit="c", mapper="qspr", placer="mvfb",
            ...            technology="cap-1").config_label
            'qspr/mvfb+cap-1'
        """
        if self.placer != "-":
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

    @property
    def overhead_vs_ideal(self) -> float:
        """Latency added by routing and congestion (Table 2's "difference")."""
        return self.latency - self.ideal_latency

    def improvement_over(self, other: "CellResult | float") -> float:
        """Percentage improvement of this cell over ``other`` (Table 2).

        Example::

            >>> fast = CellResult(circuit="c", mapper="qspr", latency=50.0)
            >>> fast.improvement_over(100.0)
            50.0
        """
        other_latency = other.latency if isinstance(other, CellResult) else float(other)
        if other_latency == 0:
            return 0.0
        return 100.0 * (other_latency - self.latency) / other_latency

    def to_dict(self) -> dict:
        """Plain-JSON representation (inverse of :meth:`from_dict`).

        Example::

            >>> CellResult.from_dict(CellResult(circuit="c", mapper="ideal").to_dict()).mapper
            'ideal'
        """
        return asdict(self)

    @classmethod
    def from_dict(cls, record: dict) -> "CellResult":
        """Rebuild a record from :meth:`to_dict` output, ignoring unknown keys.

        Raises:
            TypeError: If a required field is missing or a value does not
                match its field's type, naming the field.  An ``int`` is a
                valid ``float``, a ``bool`` is not a number, and only
                ``channel_capacity`` may be ``None``.
        """
        values = {}
        for field in fields(cls):
            if field.name not in record:
                continue
            value = record[field.name]
            kind, _, optional = field.type.partition(" | ")
            if not (value is None and optional) and (
                isinstance(value, bool) != (kind == "bool")
                or not isinstance(value, _JSON_TYPES[kind])
            ):
                raise TypeError(f"field {field.name!r} must be {field.type}, got {value!r}")
            values[field.name] = value
        return cls(**values)
