"""Quantum Instruction Dependency Graph (QIDG) and its analyses.

The QIDG captures, as a DAG over instruction indices, the per-qubit program
order of a circuit: instruction *b* depends on instruction *a* when both act
on a common qubit and *a* precedes *b* in program order (only the closest
predecessor per qubit is kept, so the graph is the transitive reduction of
the data dependences).

* :func:`build_qidg` / :class:`QIDG` — construction and traversal.
* :mod:`repro.qidg.analysis` — critical path, ASAP/ALAP levels, dependent counts.
* :mod:`repro.qidg.uidg` — the backward schedule over the uncompute graph
  (UIDG, ``build_qidg(circuit.inverse())``) that the MVFB placer runs.
"""

from repro.qidg.graph import QIDG, build_qidg
from repro.qidg.analysis import (
    alap_levels,
    asap_levels,
    critical_path_latency,
    descendant_counts,
    longest_path_to_sink,
)
from repro.qidg.uidg import reverse_schedule

__all__ = [
    "QIDG",
    "build_qidg",
    "critical_path_latency",
    "longest_path_to_sink",
    "descendant_counts",
    "asap_levels",
    "alap_levels",
    "reverse_schedule",
]
