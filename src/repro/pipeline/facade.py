"""The one-call facade: :func:`map_circuit`.

``repro.map_circuit`` is the canonical public entry point of the package:
every argument can be a name resolved through the plugin registries, so the
whole system — including third-party mappers, placers, fabrics and circuits
registered via decorators — is reachable from one line::

    import repro

    result = repro.map_circuit("[[5,1,3]]", "quale", mapper="qspr", placer="center")
    result = repro.map_circuit("ghz", "4x4c3", placer="monte-carlo",
                               num_placements=4, meeting_point="destination")
"""

from __future__ import annotations

from repro.circuits.circuit import QuantumCircuit
from repro.errors import MappingError
from repro.fabric.fabric import Fabric
from repro.mapper.result import MappingResult
from repro.pipeline.circuits import resolve_circuit
from repro.pipeline.context import PipelineObserver
from repro.pipeline.fabrics import resolve_fabric


def map_circuit(
    circuit: "QuantumCircuit | str",
    fabric: "Fabric | str" = "quale",
    mapper: str = "qspr",
    placer: str = "mvfb",
    *,
    observer: PipelineObserver | None = None,
    **options,
) -> MappingResult:
    """Map a circuit onto a fabric, resolving every name through the registries.

    The call builds one :class:`~repro.runner.spec.ExperimentSpec` and runs
    it through :func:`~repro.runner.executor.map_spec`, as ``qspr-map run``
    and ``POST /jobs`` do, so every door has the same defaults.

    Args:
        circuit: A live :class:`~repro.circuits.circuit.QuantumCircuit`, a
            circuit-registry name (``"[[5,1,3]]"``, ``"ghz"``, …) or the path
            of a QASM file.
        fabric: A live :class:`~repro.fabric.fabric.Fabric`, a fabric-registry
            name (``"quale"``, ``"small"``, …) or a geometry label such as
            ``"4x4c3"``.
        mapper: Mapper-registry name (``"qspr"``, ``"quale"``, ``"qpos"``,
            ``"ideal"`` or a plugin).
        placer: Placer-registry name used by placer-driven mappers
            (``"mvfb"``, ``"monte-carlo"``, ``"center"`` or a plugin).
        observer: Optional :class:`~repro.pipeline.context.PipelineObserver`
            receiving per-stage callbacks (passed through to mappers whose
            ``map`` accepts one, i.e. the pipeline-backed mappers).
        options: Further :class:`~repro.runner.spec.ExperimentSpec` fields:
            ``num_seeds``, ``num_placements``, ``random_seed``,
            ``technology`` and ``scheduler`` (registry names),
            ``turn_aware``, ``meeting_point`` (``"median"``,
            ``"destination"`` or ``"center"``), ``channel_capacity`` and
            ``barrier_scheduling``.

    Returns:
        The :class:`~repro.mapper.result.MappingResult` of the run.

    Raises:
        MappingError: On unknown names (with did-you-mean suggestions),
            unknown option fields or mistyped option values.

    Example::

        >>> import repro
        >>> result = repro.map_circuit("ghz", "small", placer="center")
        >>> result.latency >= result.ideal_latency > 0
        True
    """
    # Imported lazily: repro.runner resolves its names through this package.
    from repro.runner.executor import map_spec
    from repro.runner.spec import ExperimentSpec

    live_circuit = resolve_circuit(circuit)
    try:
        spec = ExperimentSpec(
            circuit=circuit if isinstance(circuit, str) else circuit.name,
            mapper=mapper,
            placer=placer,
            **options,
        )
    except TypeError as exc:
        fixed = ("circuit", "mapper", "placer", "fabric")
        known = ", ".join(f for f in ExperimentSpec.__dataclass_fields__ if f not in fixed)
        raise MappingError(f"invalid mapper option: {exc} (known options: {known})") from exc
    return map_spec(
        spec, circuit=live_circuit, fabric=resolve_fabric(fabric), observer=observer
    )
