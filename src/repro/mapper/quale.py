"""A QUALE-like baseline mapper.

QUALE (Balensiefer et al., the only publicly released prior tool and the
paper's comparison point) differs from QSPR in every dimension the paper
lists in Section I:

* *Placement*: center placement, independent of the QIDG structure.
* *Scheduling*: the QIDG is traversed backward and instructions are extracted
  in an as-late-as-possible (ALAP) manner.
* *Routing*: only one operand moves (the destination qubit stays in its
  trap), the path-selection graph does not model turns, and channels are not
  multiplexed (capacity 1).  QSPR's median-based meeting-trap selection and
  simultaneous dual-operand movement are exactly the routing improvements the
  paper claims over this baseline.

The original tool is a Java package that is no longer distributed; this class
re-implements its published behaviour on top of the same simulator used by
QSPR so that the two are compared under identical fabric semantics (see
DESIGN.md, substitutions).
"""

from __future__ import annotations

from dataclasses import replace

from repro.mapper.options import MapperOptions
from repro.mapper.qspr import QsprMapper
from repro.routing.router import MeetingPoint
from repro.technology import PAPER_TECHNOLOGY, TechnologyParams


def quale_options(technology: TechnologyParams = PAPER_TECHNOLOGY) -> MapperOptions:
    """The option preset that reproduces QUALE's behaviour.

    The preset runs ``technology``'s delays on capacity-1 channels.
    """
    return MapperOptions(
        technology=replace(technology, channel_capacity=1),
        scheduler="quale-alap",
        barrier_scheduling=True,
        turn_aware_routing=False,
        meeting_point=MeetingPoint.DESTINATION,
        trap_candidates=1,
        placer="center",
    )


class QualeMapper(QsprMapper):
    """Prior-art baseline: QUALE's placement, scheduling and routing."""

    name = "QUALE"

    def __init__(self, technology: TechnologyParams = PAPER_TECHNOLOGY) -> None:
        super().__init__(quale_options(technology))
