"""Percentile and geometric mean with the benchmark's reporting rules built in."""

from __future__ import annotations

import math
from typing import Sequence

#: A reported percentile must have at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked for with too few samples beyond it."""


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile that refuses an unsupported tail.

    The value at rank ``ceil(pct / 100 * n)`` is returned only when at least
    :data:`MIN_SAMPLES_BEYOND` samples lie beyond that rank, so a p95 needs
    200 samples and a p50 needs 20.

    Raises:
        TooFewSamples: When fewer than ``MIN_SAMPLES_BEYOND`` samples lie
            beyond the requested rank.
    """
    if not 0 < pct < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {pct}")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_SAMPLES_BEYOND:
        raise TooFewSamples(
            f"p{pct:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"at least {MIN_SAMPLES_BEYOND} are required"
        )
    return ordered[rank - 1]


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of strictly positive values."""
    if not values:
        raise ValueError("geomean of no values")
    if any(value <= 0 for value in values):
        raise ValueError("geomean needs strictly positive values")
    return math.exp(math.fsum(math.log(value) for value in values) / len(values))
