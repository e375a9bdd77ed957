"""Sample statistics shared by every workload and by ``--compare``."""

from __future__ import annotations

import math
import statistics

from repro.metrics.smr_trackers import nearest_rank_percentiles


def percentile(samples: list[float], q: int) -> float:
    """Nearest-rank percentile — the repo's one implementation; NaN when empty."""
    return nearest_rank_percentiles(samples, (q,))[q]


def median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else math.nan


def spread(samples: list[float]) -> float:
    """Inter-quartile distance as a share of the median — the driver's
    steadiness measure (``statistics.quantiles(values, n=4)``)."""
    if len(samples) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    mid = statistics.median(samples)
    return (q3 - q1) / abs(mid) if mid else math.inf


def ms(seconds: float) -> float:
    return seconds * 1000.0
