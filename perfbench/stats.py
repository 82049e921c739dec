"""Percentiles, the SLO rule and run-to-run spread.

A tail percentile is only reported where the sample supports it: the
highest of :data:`TAIL_PERMILLE` with at least :data:`MIN_BEYOND` samples
beyond it.  A request meets the SLO when its time to first token is at most
:data:`SLO_TTFT_S` and its mean time per output token at most
:data:`SLO_TPOT_S`; a request that was refused or failed has no latency and
misses.
"""

from __future__ import annotations

import statistics
from typing import Iterable, Optional, Sequence

import numpy as np

SLO_TTFT_S = 0.050
SLO_TPOT_S = 0.010
#: Candidate tail percentiles in per mille (p99.9, p99, p90), highest first.
TAIL_PERMILLE = (999, 990, 900)
MIN_BEYOND = 10


def tail_percentile(samples: int) -> Optional[float]:
    """Highest candidate percentile with ``MIN_BEYOND`` samples beyond it.

    Returns ``None`` when not even p90 is supported.
    """
    for permille in TAIL_PERMILLE:
        if samples * (1000 - permille) >= MIN_BEYOND * 1000:
            return permille / 10
    return None


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation, as NumPy computes it)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def meets_slo(ttft_s: Optional[float], tpot_s: Optional[float]) -> bool:
    """Whether one request met both latency limits (``None`` = no latency)."""
    if ttft_s is None or tpot_s is None:
        return False
    return ttft_s <= SLO_TTFT_S and tpot_s <= SLO_TPOT_S


def goodput(latencies: Iterable[tuple], sent: int) -> float:
    """Share of ``sent`` requests whose ``(ttft_s, tpot_s)`` met the SLO.

    ``latencies`` holds one pair per request that produced output; a sent
    request missing from it (refused, failed) counts as a miss.
    """
    met = sum(1 for ttft, tpot in latencies if meets_slo(ttft, tpot))
    return met / sent


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile range over median, as ``statistics.quantiles`` gives them."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)
