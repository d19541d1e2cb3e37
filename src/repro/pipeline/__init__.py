"""Composable mapping pipeline and plugin registries.

This subpackage is the canonical public API of the reproduction.  It exposes

* :class:`Registry` (:mod:`repro.pipeline.registry`) — the generic
  string-keyed plugin table with decorator registration and did-you-mean
  lookup errors;
* six populated registries — :data:`MAPPERS`, :data:`PLACERS`,
  :data:`FABRICS`, :data:`CIRCUITS`, :data:`SCHEDULERS` and
  :data:`TECHNOLOGIES` — through which every name in the system (CLI flags,
  :class:`~repro.runner.spec.ExperimentSpec` axes, facade arguments) is
  resolved;
* :class:`MappingPipeline` (:mod:`repro.pipeline.stages`) — the staged
  build-QIDG → place → simulate → package-result engine behind every mapper,
  with per-stage timings and :class:`PipelineObserver` hooks;
* :func:`map_circuit` (:mod:`repro.pipeline.facade`) — the one-call facade.

Registering a plugin makes it available *everywhere* without touching any
core module::

    from repro.pipeline import PLACERS

    @PLACERS.register("corner")
    def corner_strategy(ctx):
        ...

    repro.map_circuit("[[5,1,3]]", "small", placer="corner")

See ``docs/PIPELINE.md`` for the architecture and a complete custom-placer
walkthrough.
"""

from __future__ import annotations

from repro.pipeline.registry import Registry, RegistryError
from repro.pipeline.context import PipelineContext, PipelineObserver
from repro.pipeline.placers import PLACERS
from repro.pipeline.stages import STANDARD_STAGES, MappingPipeline, Stage
from repro.pipeline.fabrics import FABRICS, resolve_fabric
from repro.pipeline.circuits import CIRCUITS, resolve_circuit
from repro.pipeline.mappers import IdealMapper, MAPPERS, resolve_mapper
from repro.pipeline.schedulers import SCHEDULERS, resolve_scheduler
from repro.pipeline.technologies import TECHNOLOGIES, resolve_technology
from repro.pipeline.facade import map_circuit

#: The six plugin registries, keyed by their CLI listing name.
REGISTRIES: dict[str, Registry] = {
    "mappers": MAPPERS,
    "placers": PLACERS,
    "fabrics": FABRICS,
    "circuits": CIRCUITS,
    "schedulers": SCHEDULERS,
    "technologies": TECHNOLOGIES,
}

__all__ = [
    "CIRCUITS",
    "FABRICS",
    "IdealMapper",
    "MAPPERS",
    "MappingPipeline",
    "PLACERS",
    "PipelineContext",
    "PipelineObserver",
    "REGISTRIES",
    "Registry",
    "RegistryError",
    "SCHEDULERS",
    "STANDARD_STAGES",
    "Stage",
    "TECHNOLOGIES",
    "map_circuit",
    "resolve_circuit",
    "resolve_fabric",
    "resolve_mapper",
    "resolve_scheduler",
    "resolve_technology",
]
