"""Percentiles that carry their sample count.

A timing is reported as a median and a tail percentile, and a tail
percentile is only trusted when at least ``MIN_BEYOND`` samples lie beyond
it: p90 needs 100 samples, p50 needs 20.  :func:`percentile` refuses
anything less instead of quietly reporting the maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


@dataclass(frozen=True)
class Percentile:
    """A percentile value with the size of the sample it came from."""

    q: float
    value: float
    n: int


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie strictly above the ``q``-th percentile."""
    return int(math.floor(n * (100.0 - q) / 100.0 + 1e-9))


def percentile(samples: Sequence[float], q: float) -> Percentile:
    """The ``q``-th percentile (linear interpolation) of ``samples``.

    Raises :class:`TooFewSamples` when fewer than ``MIN_BEYOND`` samples lie
    beyond it.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"q must lie in (0, 100), got {q}")
    n = len(samples)
    beyond = samples_beyond(n, q)
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {beyond} beyond it; need {MIN_BEYOND}"
        )
    ordered = sorted(float(s) for s in samples)
    rank = (n - 1) * q / 100.0
    lo = int(math.floor(rank))
    hi = min(lo + 1, n - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)
    return Percentile(q=q, value=value, n=n)


def median(samples: Sequence[float]) -> float:
    """Plain median with no sample-count floor (for repeated set-up timings)."""
    ordered = sorted(float(s) for s in samples)
    if not ordered:
        raise TooFewSamples("median of an empty sample")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])
