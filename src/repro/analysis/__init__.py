"""Analysis utilities: latency metrics and table formatting.

* :mod:`repro.analysis.metrics` — latency breakdowns derived from a
  :class:`~repro.mapper.result.MappingResult`.
* :mod:`repro.analysis.tables` — plain-text table rendering used by the
  benchmark harness to print Table 1 / Table 2 style reports.
"""

from repro.analysis.metrics import LatencyBreakdown, latency_breakdown
from repro.analysis.tables import TextTable, format_comparison_table

__all__ = [
    "LatencyBreakdown",
    "latency_breakdown",
    "TextTable",
    "format_comparison_table",
]
