"""Configuration of a mapping run.

:class:`MapperOptions` gathers every knob the paper's experiments vary:
technology parameters (the channel capacity among them), routing features
(turn awareness, dual-operand movement), the scheduling policy and the
placer (MVFB, Monte-Carlo or plain center placement).  The presets used by the
concrete mappers live next to the mappers themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MappingError, check_int
from repro.routing.router import MeetingPoint, RoutingPolicy
from repro.scheduling.policies import SchedulingPolicy
from repro.technology import PAPER_TECHNOLOGY, TechnologyParams


@dataclass(frozen=True)
class MapperOptions:
    """All parameters of a mapping run.

    Attributes:
        technology: Physical machine description: the delays and the
            channel capacity (2 for the paper's QSPR, 1 for the prior tools).
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
            (the QUALE and QPOS presets) or the free trap nearest the fabric
            center (``CENTER``, which no preset uses).
        trap_candidates: Number of nearest-to-median traps the router tries.
        placer: Placement algorithm — the registry name of any placer in
            :data:`repro.pipeline.PLACERS` (``"mvfb"``, ``"monte-carlo"``,
            ``"center"`` or a third-party placer).
        num_seeds: MVFB's number of random seeds ``m``.  This default, the
            paper's m=25, is the one every entry point reads.
        num_placements: Monte-Carlo's number of placement runs ``m'``;
            ``None`` runs ``num_seeds`` placements.
        random_seed: Seed for all randomised placement decisions.
    """

    technology: TechnologyParams = PAPER_TECHNOLOGY
    scheduler: SchedulingPolicy | str = "qspr"
    barrier_scheduling: bool = False
    turn_aware_routing: bool = True
    meeting_point: MeetingPoint = MeetingPoint.MEDIAN
    trap_candidates: int = 4
    placer: str = "mvfb"
    num_seeds: int = 25
    num_placements: int | None = None
    random_seed: int = 0

    def __post_init__(self) -> None:
        check_int("num_seeds", self.num_seeds)
        check_int("trap_candidates", self.trap_candidates)
        if self.num_placements is not None:
            check_int("num_placements", self.num_placements)

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

    def routing_policy(self) -> RoutingPolicy:
        """The :class:`RoutingPolicy` these options describe."""
        return RoutingPolicy(
            turn_aware=self.turn_aware_routing,
            meeting_point=self.meeting_point,
            trap_candidates=self.trap_candidates,
        )

    def describe(self) -> str:
        """One-line human-readable summary used in logs and reports.

        Identifies a run completely: besides the placer/scheduling/routing
        choices it includes the router's candidate-trap count and — for the
        Monte-Carlo placer — the placement-run budget ``m'``.
        """
        text = (
            f"placer={self.placer} priority={self.scheduler_name} "
            f"barriers={self.barrier_scheduling} turn_aware={self.turn_aware_routing} "
            f"meeting={self.meeting_point.value} "
            f"capacity={self.technology.channel_capacity} "
            f"traps={self.trap_candidates} m={self.num_seeds}"
        )
        if self.placer == "monte-carlo":
            text += f" m'={self.num_placements or self.num_seeds}"
        return text
