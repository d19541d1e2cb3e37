"""The QSPR mapper: the paper's scheduling + placement + routing tool.

:class:`QsprMapper` is a thin configuration shim over
:func:`~repro.pipeline.stages.run_pipeline`
(build-QIDG → place → simulate → package-result).  The placer is resolved by
name through the :data:`repro.pipeline.PLACERS` registry, so any
decorator-registered strategy — not just the paper's MVFB/Monte-Carlo/center
trio — plugs in via ``MapperOptions(placer="<name>")`` without modifying this
class.

Concrete baseline mappers (:class:`~repro.mapper.quale.QualeMapper`,
:class:`~repro.mapper.qpos.QposMapper`) are option presets over the same
pipeline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.circuits.circuit import QuantumCircuit
from repro.fabric.fabric import Fabric
from repro.mapper.options import MapperOptions
from repro.mapper.result import MappingResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.context import PipelineObserver


class QsprMapper:
    """The paper's mapper (quantum Scheduling, Placement and Routing)."""

    #: Name used in reports and result objects.
    name = "QSPR"

    def __init__(self, options: MapperOptions | None = None) -> None:
        self.options = options if options is not None else MapperOptions()

    def map(
        self,
        circuit: QuantumCircuit,
        fabric: Fabric,
        *,
        observer: "PipelineObserver | None" = None,
    ) -> MappingResult:
        """Map ``circuit`` onto ``fabric`` and return the best realisation.

        Args:
            circuit: The circuit to map (must contain instructions).
            fabric: The target fabric.
            observer: Optional per-stage hooks (see
                :class:`~repro.pipeline.context.PipelineObserver`).

        Raises:
            MappingError: If the circuit cannot be mapped with the selected
                options (e.g. MVFB placement of a circuit with measurements,
                which cannot be uncomputed) or the placer name is unknown.
        """
        # Imported lazily: repro.pipeline registers this class's factory, so
        # a module-level import would be circular.
        from repro.pipeline.stages import run_pipeline

        return run_pipeline(
            circuit, fabric, self.options, mapper_name=self.name, observer=observer
        )
