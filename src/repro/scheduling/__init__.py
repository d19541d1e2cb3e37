"""Instruction scheduling: priorities, readiness tracking and the busy queue.

The paper's scheduling problem is Minimum-Latency Resource-Constrained (MLRC)
scheduling where the resources are channel/junction capacities and the
instruction delays only become known after placement and routing.  The
scheduler is therefore interleaved with the router inside the event-driven
simulator (:mod:`repro.sim.engine`); this package provides the pieces the
simulator composes:

* :mod:`repro.scheduling.policies` — the :class:`SchedulingPolicy` strategy
  objects of QSPR, QUALE, QPOS and the QPOS variant of reference [5]; the
  pluggable scheduler surface registered in
  :data:`repro.pipeline.schedulers.SCHEDULERS`.
* :mod:`repro.scheduling.ready` — dependency bookkeeping (which instructions
  are ready to issue).
* :mod:`repro.scheduling.busy_queue` — instructions that were ready but could
  not be routed; they are retried when the channels that blocked them are
  released (wake-sets keyed by channel).
"""

from repro.scheduling.policies import (
    QposDependentsPolicy,
    QposPathDelayPolicy,
    QsprPolicy,
    QualeAlapPolicy,
    SchedulingPolicy,
)
from repro.scheduling.ready import DependencyTracker
from repro.scheduling.busy_queue import BusyQueue

__all__ = [
    "QposDependentsPolicy",
    "QposPathDelayPolicy",
    "QsprPolicy",
    "QualeAlapPolicy",
    "SchedulingPolicy",
    "DependencyTracker",
    "BusyQueue",
]
