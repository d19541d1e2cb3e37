"""QSPR — scheduling, placement and routing of quantum circuits on ion-trap fabrics.

This package is a from-scratch reproduction of the system described in

    M. J. Dousti and M. Pedram, "Minimizing the Latency of Quantum Circuits
    during Mapping to the Ion-Trap Circuit Fabric", DATE 2012.

The public API is organised by pipeline stage:

* :mod:`repro.qasm` — the QASM dialect used by the paper (parser/writer).
* :mod:`repro.circuits` — circuit object model and the QECC benchmark suite.
* :mod:`repro.qidg` — quantum instruction dependency graph and its reversal.
* :mod:`repro.fabric` — ion-trap circuit fabric model (traps/channels/junctions).
* :mod:`repro.routing` — turn-aware congestion-driven routing.
* :mod:`repro.scheduling` — priority-based resource-constrained scheduling.
* :mod:`repro.sim` — the event-driven fabric simulator and micro-command traces.
* :mod:`repro.placement` — center, Monte-Carlo and MVFB placers.
* :mod:`repro.mapper` — end-to-end mappers: QSPR, QUALE, QPOS and the ideal baseline.
* :mod:`repro.analysis` — latency metrics and table formatting.
* :mod:`repro.viz` — ASCII renderings of fabrics and traces.
* :mod:`repro.runner` — batch experiment runner: sweeps, caching, reports.
* :mod:`repro.pipeline` — the four-stage mapping pipeline and the plugin
  registries (mappers, placers, fabrics, circuits, schedulers,
  technologies) behind every name in the system.
* :mod:`repro.workloads` — random-circuit families and QASM ingest,
  registered as circuit names.

The one-call facade resolves every argument through the registries::

    import repro

    result = repro.map_circuit("[[5,1,3]]", "quale", mapper="qspr", placer="mvfb")
    print(result.latency)

Equivalent explicit construction::

    from repro import quale_fabric, qecc_encoder, QsprMapper

    circuit = qecc_encoder("[[5,1,3]]")
    fabric = quale_fabric()
    result = QsprMapper().map(circuit, fabric)
    print(result.latency)

Third-party plugins register through decorators (``@PLACERS.register("x")``,
…) and are then selectable by name everywhere — the facade, experiment
sweeps and the ``qspr-map`` CLI.  See ``docs/PIPELINE.md``.
"""

from __future__ import annotations

from repro.technology import PAPER_TECHNOLOGY, TechnologyParams
from repro.errors import (
    CircuitError,
    FabricError,
    MappingError,
    PlacementError,
    QasmError,
    ReproError,
    RoutingError,
    SchedulingError,
    SimulationError,
)
from repro.circuits import QuantumCircuit, Instruction, Qubit
from repro.circuits.qecc import qecc_encoder, QECC_BENCHMARKS
from repro.qasm import parse_qasm, write_qasm
from repro.qidg import QIDG, build_qidg
from repro.fabric import Fabric, FabricBuilder, quale_fabric, small_fabric
from repro.mapper import (
    IdealBaseline,
    MapperOptions,
    MappingResult,
    QposMapper,
    QsprMapper,
    QualeMapper,
)
from repro.placement import CenterPlacer, MonteCarloPlacer, MvfbPlacer, Placement
from repro.scheduling import SchedulingPolicy
from repro.runner import (
    CellResult,
    ExperimentSpec,
    FabricCell,
    ResultCache,
    Sweep,
    execute_cell,
    run_sweep,
)
from repro.pipeline import (
    CIRCUITS,
    FABRICS,
    MAPPERS,
    PLACERS,
    REGISTRIES,
    SCHEDULERS,
    TECHNOLOGIES,
    PipelineContext,
    PipelineObserver,
    Registry,
    RegistryError,
    map_circuit,
    resolve_scheduler,
    resolve_technology,
)

# Imported for its side effect: registers the workload circuit families and
# the bundled QASM suite in every process that imports repro, so service
# workers resolve "random-layered:…" and "qasm/…" names.
from repro import workloads  # noqa: F401

__all__ = [
    "TechnologyParams",
    "PAPER_TECHNOLOGY",
    "ReproError",
    "QasmError",
    "CircuitError",
    "FabricError",
    "PlacementError",
    "RoutingError",
    "SchedulingError",
    "SimulationError",
    "MappingError",
    "QuantumCircuit",
    "Instruction",
    "Qubit",
    "qecc_encoder",
    "QECC_BENCHMARKS",
    "parse_qasm",
    "write_qasm",
    "QIDG",
    "build_qidg",
    "Fabric",
    "FabricBuilder",
    "quale_fabric",
    "small_fabric",
    "MapperOptions",
    "MappingResult",
    "QsprMapper",
    "QualeMapper",
    "QposMapper",
    "IdealBaseline",
    "Placement",
    "CenterPlacer",
    "MonteCarloPlacer",
    "MvfbPlacer",
    "CellResult",
    "ExperimentSpec",
    "FabricCell",
    "ResultCache",
    "Sweep",
    "execute_cell",
    "run_sweep",
    "map_circuit",
    "Registry",
    "RegistryError",
    "MAPPERS",
    "PLACERS",
    "FABRICS",
    "CIRCUITS",
    "SCHEDULERS",
    "TECHNOLOGIES",
    "REGISTRIES",
    "PipelineContext",
    "PipelineObserver",
    "SchedulingPolicy",
    "resolve_scheduler",
    "resolve_technology",
]

__version__ = "1.0.0"
