"""Configuration of a mapping run.

:class:`MapperOptions` gathers every knob the paper's experiments vary:
technology parameters, routing features (turn awareness, dual-operand
movement, channel capacity), the scheduling policy and the placer
(MVFB, Monte-Carlo or plain center placement).  The presets used by the
concrete mappers live next to the mappers themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from repro.errors import MappingError
from repro.routing.router import MeetingPoint, RoutingPolicy
from repro.scheduling.policies import SchedulingPolicy
from repro.technology import PAPER_TECHNOLOGY, TechnologyParams


class PlacerKind(Enum):
    """The built-in placement algorithms.

    Kept for backwards compatibility and convenient literals; the canonical
    identifier of a placer is its *registry name* (the enum value), which is
    what :data:`repro.pipeline.PLACERS` is keyed by.  Custom placers have no
    enum member — pass their registry name as a plain string wherever a
    placer is selected (``MapperOptions(placer="my-placer")``).
    """

    MVFB = "mvfb"
    MONTE_CARLO = "monte-carlo"
    CENTER = "center"


@dataclass(frozen=True)
class MapperOptions:
    """All parameters of a mapping run.

    Attributes:
        technology: Physical machine description (delays, capacities).
        scheduler: Scheduling policy — a registry name from
            :data:`repro.pipeline.SCHEDULERS` (what specs, sweeps and the
            CLI pass) or a
            :class:`~repro.scheduling.policies.SchedulingPolicy` object.
        barrier_scheduling: Schedule level-by-level (ALAP) before mapping, as
            the prior tools do, instead of interleaving scheduling with
            routing (QSPR).  Instructions of a level only issue after every
            instruction of earlier levels finished.
        turn_aware_routing: Model turns during path selection (QSPR feature).
        meeting_point: How the meeting trap of a two-qubit gate is chosen —
            median of the operands (QSPR), the destination operand's trap
            (QPOS) or the free trap nearest the fabric center (QUALE).
        channel_capacity: Channel capacity override; ``None`` uses the
            technology's value (2 for the paper's QSPR, 1 for prior tools).
        trap_candidates: Number of nearest-to-median traps the router tries.
        placer: Placement algorithm — a :class:`PlacerKind` member or the
            registry name of any placer in :data:`repro.pipeline.PLACERS`
            (which is how third-party placers are selected).
        num_seeds: MVFB's number of random seeds ``m``.
        num_placements: Monte-Carlo's number of placement runs ``m'``
            (required when ``placer`` is Monte-Carlo).
        mvfb_patience: Consecutive non-improving runs that stop an MVFB seed.
        mvfb_max_runs_per_seed: Hard cap on placement runs per MVFB seed.
        random_seed: Seed for all randomised placement decisions.
    """

    technology: TechnologyParams = PAPER_TECHNOLOGY
    scheduler: SchedulingPolicy | str = "qspr"
    barrier_scheduling: bool = False
    turn_aware_routing: bool = True
    meeting_point: MeetingPoint = MeetingPoint.MEDIAN
    channel_capacity: int | None = None
    trap_candidates: int = 4
    placer: PlacerKind | str = PlacerKind.MVFB
    num_seeds: int = 25
    num_placements: int | None = None
    mvfb_patience: int = 3
    mvfb_max_runs_per_seed: int = 40
    random_seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.placer, PlacerKind) and (
            not isinstance(self.placer, str) or not self.placer
        ):
            raise MappingError(
                f"placer must be a PlacerKind or a registry name, got {self.placer!r}"
            )
        if self.num_seeds < 1:
            raise MappingError("num_seeds must be at least 1")
        if self.num_placements is not None and self.num_placements < 1:
            raise MappingError("num_placements must be at least 1")
        if self.channel_capacity is not None and self.channel_capacity < 1:
            raise MappingError("channel_capacity must be at least 1")
        if self.trap_candidates < 1:
            raise MappingError("trap_candidates must be at least 1")

    @property
    def placer_name(self) -> str:
        """The placer's registry name (the key into ``repro.pipeline.PLACERS``)."""
        return self.placer.value if isinstance(self.placer, PlacerKind) else self.placer

    @property
    def scheduler_name(self) -> str:
        """Registry name of the selected scheduling policy.

        This is what reports print and what the scheduler axis of specs and
        sweeps carries.
        """
        if isinstance(self.scheduler, SchedulingPolicy):
            return self.scheduler.name
        return self.scheduler

    def scheduling_policy(self) -> SchedulingPolicy:
        """The resolved :class:`SchedulingPolicy` strategy object.

        Raises:
            MappingError: On an unknown scheduler registry name.
        """
        # Imported lazily: repro.pipeline's import chain reaches this module
        # through the built-in mappers, so a module-level import would be
        # circular.
        from repro.pipeline.schedulers import resolve_scheduler

        return resolve_scheduler(self.scheduler, error=MappingError)

    @property
    def effective_channel_capacity(self) -> int:
        """Channel capacity actually used by the router."""
        if self.channel_capacity is not None:
            return self.channel_capacity
        return self.technology.channel_capacity

    def routing_policy(self) -> RoutingPolicy:
        """The :class:`RoutingPolicy` these options describe."""
        return RoutingPolicy(
            turn_aware=self.turn_aware_routing,
            meeting_point=self.meeting_point,
            channel_capacity=self.effective_channel_capacity,
            trap_candidates=self.trap_candidates,
        )

    def with_placer(self, placer: PlacerKind | str, **changes) -> "MapperOptions":
        """A copy of the options with a different placer (and other changes)."""
        return replace(self, placer=placer, **changes)

    def describe(self) -> str:
        """One-line human-readable summary used in logs and reports.

        Identifies a run completely: besides the placer/scheduling/routing
        choices it includes the router's candidate-trap count and — for the
        Monte-Carlo placer — the placement-run budget ``m'``.
        """
        text = (
            f"placer={self.placer_name} priority={self.scheduler_name} "
            f"barriers={self.barrier_scheduling} turn_aware={self.turn_aware_routing} "
            f"meeting={self.meeting_point.value} "
            f"capacity={self.effective_channel_capacity} "
            f"traps={self.trap_candidates} m={self.num_seeds}"
        )
        if self.placer_name == PlacerKind.MONTE_CARLO.value:
            text += f" m'={self.num_placements}"
        return text
