"""A QPOS-like baseline mapper.

QPOS (Metodi et al.) follows a similar flow to QUALE but, as the paper
describes in Section I:

* the *destination* operand of a two-qubit instruction stays fixed in its
  trap while the *source* operand moves to reach it;
* instructions are extracted from the QIDG in an as-soon-as-possible (ASAP)
  fashion, with the initial priority of an instruction set to the number of
  instructions that depend on it;
* path selection takes congestion into account, but not turn delays, and
  channels are not multiplexed.

The variant of reference [5] (Whitney et al.), which sets the priority to the
total delay of the dependent instructions, is available through
:func:`qpos_options` with ``path_delay_priority=True``.
"""

from __future__ import annotations

from dataclasses import replace

from repro.mapper.options import MapperOptions
from repro.mapper.qspr import QsprMapper
from repro.routing.router import MeetingPoint
from repro.technology import PAPER_TECHNOLOGY, TechnologyParams


def qpos_options(
    technology: TechnologyParams = PAPER_TECHNOLOGY,
    *,
    path_delay_priority: bool = False,
) -> MapperOptions:
    """The option preset that reproduces QPOS's behaviour.

    Args:
        technology: Physical machine description; the preset runs its delays
            on capacity-1 channels.
        path_delay_priority: Use the priority tweak of reference [5] (total
            delay of dependent instructions) instead of the dependent count.
    """
    return MapperOptions(
        technology=replace(technology, channel_capacity=1),
        scheduler="qpos-path-delay" if path_delay_priority else "qpos-dependents",
        turn_aware_routing=False,
        meeting_point=MeetingPoint.DESTINATION,
        trap_candidates=1,
        placer="center",
    )


class QposMapper(QsprMapper):
    """Prior-art baseline: QPOS's scheduling and routing over center placement."""

    name = "QPOS"

    def __init__(
        self,
        technology: TechnologyParams = PAPER_TECHNOLOGY,
        *,
        path_delay_priority: bool = False,
    ) -> None:
        super().__init__(qpos_options(technology, path_delay_priority=path_delay_priority))
