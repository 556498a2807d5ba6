"""Percentiles, run-to-run spread and ledger arithmetic (no repro imports).

Kept free of any dependency on the system under test so the harness tests
can exercise the arithmetic without bringing a deployment up.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

#: Percentiles a tail metric may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)

#: A tail percentile is supported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def nearest_rank(count: int, pct: float) -> int:
    """1-based rank of the ``pct`` percentile among ``count`` ordered samples."""
    # Rounded before the ceiling: 99.9 / 100 * 10_000 is 9990.000000000002.
    return min(count, max(1, math.ceil(round(pct * count / 100.0, 6))))


def percentile(sorted_samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sample list."""
    if not sorted_samples:
        raise ValueError("percentile of an empty sample")
    return sorted_samples[nearest_rank(len(sorted_samples), pct) - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie strictly beyond the ``pct`` rank."""
    return count - nearest_rank(count, pct)


def supported_tail(count: int) -> float:
    """The percentile rule: the highest tail with >= 10 samples beyond it.

    Returns 50.0 when not even p90 is supported — the op class then has a
    median only (grants and onboarding are sized that way on purpose).
    """
    for pct in TAIL_PERCENTILES:
        if samples_beyond(count, pct) >= MIN_SAMPLES_BEYOND:
            return pct
    return 50.0


def iqr_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the driver's spread."""
    first, _second, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / abs(middle) if middle else float("inf")


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly-overlapping ``(start, end)`` intervals."""
    covered = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def ledger_coverage(layer_self_times: Dict[str, float], end_to_end: float) -> float:
    """Sum of the layers' times over the end-to-end span they should explain.

    The layers come from independent measurements (the client's share from
    a replay, the rest from spans), so 1.0 is agreement between them, a
    value below a hole in the ledger, a value above double counting.
    """
    if end_to_end <= 0:
        raise ValueError("end-to-end time must be positive")
    return sum(layer_self_times.values()) / end_to_end


def worse_by(parent: float, change: float, better: str) -> float:
    """Share of the parent's value by which ``change`` is worse (<= 0: not worse)."""
    if better == "lower":
        return (change - parent) / parent
    return (parent - change) / parent


def medians(rows: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric medians over a list of runs' ``{metric: value}`` rows."""
    names = rows[0].keys()
    return {name: statistics.median(row[name] for row in rows) for name in names}
