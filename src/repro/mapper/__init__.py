"""End-to-end mappers.

A *mapper* takes a circuit and a fabric and produces a
:class:`~repro.mapper.result.MappingResult`: the scheduled, placed and routed
realisation of the circuit together with its execution latency.

* :class:`QsprMapper` — the paper's tool: MVFB placement, priority
  scheduling, turn-aware dual-operand routing, multiplexed channels.
* :class:`QualeMapper` — the prior-art baseline (QUALE): center placement,
  ALAP scheduling, single-operand turn-oblivious routing, unit channel
  capacity.
* :class:`QposMapper` — the QPOS baseline: like QUALE but ASAP issue order
  with a dependent-count priority and congestion-aware path selection.
* :class:`IdealBaseline` — the zero-routing/zero-congestion lower bound
  (the QIDG critical path).
"""

from repro.mapper.options import MapperOptions
from repro.mapper.result import MappingResult
from repro.mapper.ideal import IdealBaseline
from repro.mapper.qspr import QsprMapper
from repro.mapper.quale import QualeMapper
from repro.mapper.qpos import QposMapper

__all__ = [
    "MapperOptions",
    "MappingResult",
    "IdealBaseline",
    "QsprMapper",
    "QualeMapper",
    "QposMapper",
]
