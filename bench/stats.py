"""Order statistics the benchmark reports timings with."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, highest first. The reported tail is the first
# one that leaves at least TAIL_BEYOND samples above it. A fixed ladder keeps
# the percentile the same from run to run while the sample count wobbles; at
# 25 s the runs sit well inside one rung (about 430 steps on train-maria,
# 2000 on train-mmoe-b64, 140 passes on score-maria).
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def _rank(percentile: float, n: int) -> int:
    # rounded first, so 99.9% of 10000 is rank 9990 and not 9991
    return max(1, math.ceil(round(percentile * n / 100.0, 9)))


def nearest_rank(values, percentile: float) -> float:
    """The smallest sample with at least ``percentile`` percent of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[_rank(percentile, len(ordered)) - 1]


def tail_percentile(values) -> tuple[float, float, int]:
    """Highest ladder percentile with at least ``TAIL_BEYOND`` samples above
    its rank; returns ``(percentile, value, sample_count)``."""
    n = len(values)
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= TAIL_BEYOND:
            return p, nearest_rank(values, p), n
    raise ValueError(f"tail_percentile: {n} samples leave fewer than {TAIL_BEYOND} beyond the median")


def median(values) -> float:
    return float(statistics.median(values))
