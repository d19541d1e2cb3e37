"""The mapper registry: named factories for end-to-end mappers.

Entries are factories ``(options: MapperOptions | None) -> mapper`` where the
returned object exposes ``map(circuit, fabric) -> MappingResult``.  Built-ins:

* ``qspr`` — the paper's mapper; honours every ``MapperOptions`` knob.
* ``quale`` / ``qpos`` — the prior-art presets (fixed options; the
  ``options`` argument only contributes its technology parameters).
* ``ideal`` — the zero-routing / zero-congestion lower bound, adapted to the
  common ``map`` interface (empty placement and trace, latency equal to the
  QIDG critical path).

A third-party mapper registers the same way as any plugin::

    from repro.pipeline import MAPPERS

    @MAPPERS.register("my-mapper")
    def build_my_mapper(options=None):
        return MyMapper(options)
"""

from __future__ import annotations

from repro.errors import MappingError
from repro.mapper.options import MapperOptions
from repro.mapper.qpos import QposMapper
from repro.mapper.qspr import QsprMapper
from repro.mapper.quale import QualeMapper
from repro.mapper.result import MappingResult
from repro.pipeline.registry import Registry

#: The mapper registry.  Built-ins: ``qspr``, ``quale``, ``qpos``, ``ideal``.
MAPPERS = Registry("mapper")


class IdealMapper:
    """The ideal baseline behind the common ``map(circuit, fabric)`` surface.

    Wraps :class:`~repro.mapper.ideal.IdealBaseline` so the zero-routing /
    zero-congestion bound participates in sweeps, the facade and the CLI
    like any other mapper.  The result carries an empty placement and trace
    (nothing moves on an ideal fabric) and ``latency == ideal_latency``.
    """

    name = "Ideal"

    def __init__(self, options: MapperOptions | None = None) -> None:
        self.options = options if options is not None else MapperOptions()

    def map(self, circuit, fabric) -> MappingResult:
        """Latency lower bound of ``circuit``, packaged as a mapping result."""
        import time as _time

        from repro.mapper.ideal import IdealBaseline
        from repro.placement.base import Placement
        from repro.sim.trace import ControlTrace

        if circuit.num_instructions == 0:
            raise MappingError("cannot map an empty circuit")
        started = _time.perf_counter()
        latency = IdealBaseline(self.options.technology).latency(circuit)
        return MappingResult(
            circuit_name=circuit.name,
            fabric_name=fabric.name,
            mapper_name=self.name,
            latency=latency,
            ideal_latency=latency,
            schedule=[],
            initial_placement=Placement({}),
            final_placement=Placement({}),
            trace=ControlTrace(),
            records={},
            direction="-",
            placement_runs=0,
            cpu_seconds=_time.perf_counter() - started,
            options=self.options,
        )


@MAPPERS.register("qspr")
def build_qspr(options: MapperOptions | None = None) -> QsprMapper:
    """The paper's mapper, configured by ``options``."""
    return QsprMapper(options)


@MAPPERS.register("quale")
def build_quale(options: MapperOptions | None = None) -> QualeMapper:
    """The QUALE preset (fixed placer/scheduling/routing choices)."""
    return QualeMapper((options or MapperOptions()).technology)


@MAPPERS.register("qpos")
def build_qpos(options: MapperOptions | None = None) -> QposMapper:
    """The QPOS preset (fixed placer/scheduling/routing choices)."""
    return QposMapper((options or MapperOptions()).technology)


@MAPPERS.register("ideal")
def build_ideal(options: MapperOptions | None = None) -> IdealMapper:
    """The zero-routing / zero-congestion baseline."""
    return IdealMapper(options)


def resolve_mapper(name: str, options: MapperOptions | None = None):
    """Instantiate the mapper registered under ``name``.

    Raises:
        MappingError: On an unknown name (with a did-you-mean suggestion).
    """
    return MAPPERS.resolve(name, error=MappingError)(options)
