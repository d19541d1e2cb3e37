"""Ablation of QSPR's three claimed improvements (paper Section I).

The paper attributes QSPR's gains to three mechanisms:

1. channel/junction multiplexing (capacity 2 instead of 1),
2. the MVFB placer (instead of center placement),
3. turn-aware, dual-operand routing (instead of single-operand,
   turn-oblivious routing).

This benchmark disables each mechanism in isolation, maps two benchmark
circuits with every variant and prints the latency deltas, which quantifies
how much each mechanism contributes on our reconstructed fabric.  Two
scenario-engine variants ride along (see ``docs/SCENARIOS.md``): swapping
the scheduler registry entry for QPOS's dependent-count policy, and the
registered ``fast-turn`` technology (turns as cheap as moves).
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.tables import format_comparison_table


from report_util import emit as _emit
from repro import map_circuit

BENCH_SEEDS = int(os.environ.get("REPRO_BENCH_SEEDS", "3"))

_CIRCUITS = ("[[9,1,3]]", "[[23,1,7]]")

#: Ablation variants: label -> option overrides relative to full QSPR.
#: Circuit, fabric and placer names are resolved through the plugin
#: registries by :func:`repro.map_circuit`.
_VARIANTS: dict[str, dict] = {
    "full QSPR": {},
    "no multiplexing (capacity 1)": {"channel_capacity": 1},
    "center placement (no MVFB)": {"placer": "center"},
    "turn-oblivious routing": {"turn_aware": False},
    "single-operand movement": {"meeting_point": "destination"},
    "QPOS scheduler (dependent count)": {"scheduler": "qpos-dependents"},
    "fast-turn technology": {"technology": "fast-turn"},
}

_ROWS: dict[tuple, tuple] = {}
_EXPECTED = len(_CIRCUITS) * len(_VARIANTS)


def _map_variant(name: str, label: str):
    overrides = dict(_VARIANTS[label])
    return map_circuit(name, "quale", num_seeds=BENCH_SEEDS, **overrides)


@pytest.mark.parametrize("label", list(_VARIANTS))
@pytest.mark.parametrize("name", _CIRCUITS)
def test_ablation(benchmark, name, label):
    result = benchmark.pedantic(_map_variant, args=(name, label), rounds=1, iterations=1)
    _ROWS[(name, label)] = (name, label, result.latency, result.total_congestion_delay)
    benchmark.extra_info.update(circuit=name, variant=label, latency_us=result.latency)
    assert result.latency >= result.ideal_latency

    if len(_ROWS) == _EXPECTED:
        rows = []
        for circuit in _CIRCUITS:
            base = _ROWS[(circuit, "full QSPR")][2]
            for label_ in _VARIANTS:
                latency = _ROWS[(circuit, label_)][2]
                rows.append((circuit, label_, latency, latency - base))
        _emit(
            format_comparison_table(
                f"Ablation of QSPR's mechanisms (m={BENCH_SEEDS} seeds)",
                ["circuit", "variant", "latency (us)", "delta vs full QSPR (us)"],
                rows,
            )
        )
        # Disabling the MVFB placer must not make the mapping faster.
        for circuit in _CIRCUITS:
            assert _ROWS[(circuit, "center placement (no MVFB)")][2] >= _ROWS[(circuit, "full QSPR")][2]
