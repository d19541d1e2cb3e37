"""Workload circuits: random-circuit families and QASM ingest.

* :mod:`~repro.workloads.families` — layered random-circuit families
  (``random-layered``, ``random-local``) with width, depth, locality and
  fill knobs;
* :mod:`~repro.workloads.qasm_ingest` — external QASM files as
  ``qasm/<stem>`` registry names, plus the bundled suite.

Importing the package registers both into :data:`repro.pipeline.CIRCUITS`;
``repro/__init__`` imports it, so every process that imports anything of
the reproduction, service workers included, resolves the same names.  See
``docs/WORKLOADS.md``.
"""

from __future__ import annotations

from repro.workloads.families import layered_random_circuit
from repro.workloads.qasm_ingest import (
    BUNDLED_SUITE,
    ingest_qasm_dir,
    ingest_qasm_file,
)

__all__ = [
    "BUNDLED_SUITE",
    "ingest_qasm_dir",
    "ingest_qasm_file",
    "layered_random_circuit",
]
