"""Analyses over the QIDG: critical path, levels and dependent counts.

All functions take the technology parameters explicitly so the same graph can
be analysed under different physical machine descriptions.  Every QIDG edge
points forward in program order, so each analysis is one sweep over the
instruction indices (backward for the quantities measured to the sinks).
"""

from __future__ import annotations

from repro.qidg.graph import QIDG
from repro.technology import PAPER_TECHNOLOGY, TechnologyParams


def longest_path_to_sink(
    qidg: QIDG, technology: TechnologyParams = PAPER_TECHNOLOGY
) -> dict[int, float]:
    """Longest delay path from each instruction (inclusive) to any sink.

    The value for instruction ``i`` is the sum of gate delays along the
    heaviest dependency chain starting at ``i``; it is the second term of the
    paper's scheduling priority function.
    """
    delays = qidg.gate_delays(technology)
    result = [0.0] * len(delays)
    for node, succs in reversed(list(enumerate(qidg.successors))):
        result[node] = delays[node] + max((result[succ] for succ in succs), default=0.0)
    return dict(enumerate(result))


def critical_path_latency(
    qidg: QIDG, technology: TechnologyParams = PAPER_TECHNOLOGY
) -> float:
    """Latency of the critical path assuming zero routing/congestion delay.

    This is exactly the paper's *ideal baseline* (Section V.A): a lower bound
    on the latency of any placed-and-routed realisation of the circuit.
    """
    paths = longest_path_to_sink(qidg, technology)
    return max(paths.values(), default=0.0)


def descendant_counts(qidg: QIDG) -> dict[int, int]:
    """Number of (transitive) dependents of each instruction.

    This is the first term of the paper's scheduling priority and also the
    initial priority used by QPOS.  Bit ``j`` of ``reach[i]`` is set when
    instruction ``j`` depends on ``i``.
    """
    reach = [0] * len(qidg)
    for node, succs in reversed(list(enumerate(qidg.successors))):
        bits = 0
        for succ in succs:
            bits |= reach[succ] | (1 << succ)
        reach[node] = bits
    return {node: bits.bit_count() for node, bits in enumerate(reach)}


def asap_levels(qidg: QIDG) -> dict[int, int]:
    """As-soon-as-possible level (0-based depth) of each instruction."""
    levels: list[int] = []
    for preds in qidg.predecessors:
        levels.append(1 + max(levels[p] for p in preds) if preds else 0)
    return dict(enumerate(levels))


def alap_levels(qidg: QIDG) -> dict[int, int]:
    """As-late-as-possible level of each instruction.

    Levels share the scale of :func:`asap_levels`: the deepest instructions
    keep their ASAP level and every other instruction is pushed as late as
    its successors allow.  QUALE's scheduler traverses the QIDG backward in
    this ALAP fashion.
    """
    depth = max(asap_levels(qidg).values(), default=0)
    levels = [depth] * len(qidg)
    for node, succs in reversed(list(enumerate(qidg.successors))):
        if succs:
            levels[node] = min(levels[s] for s in succs) - 1
    return dict(enumerate(levels))
