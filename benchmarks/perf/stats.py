"""Order statistics shared by the benchmark runner and the comparator."""

from __future__ import annotations

import statistics
from collections.abc import Sequence

#: Tail percentiles considered, lowest first.
TAIL_PERCENTILES = (90.0, 99.0, 99.9)

#: A tail percentile is reported only when at least this many samples
#: lie beyond it.
MIN_BEYOND = 10


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives
    them (a single value is its own quartiles)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def relative_spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def tail_percentile(values: Sequence[float]) -> tuple[float, float] | None:
    """``(p, value)`` for the highest percentile in
    :data:`TAIL_PERCENTILES` with at least :data:`MIN_BEYOND` samples
    beyond it, or ``None`` when there are too few samples for any."""
    # Rounded: 100 * (100 - 90) / 100 must count as 10, not 9.99...
    eligible = [
        p for p in TAIL_PERCENTILES if round(len(values) * (100 - p) / 100, 6) >= MIN_BEYOND
    ]
    if not eligible:
        return None
    p = eligible[-1]
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return p, cuts[round(p * 10) - 1]


def summarize(values: Sequence[float], unit: str) -> dict:
    """Median with sample count, quartiles and the eligible tail."""
    q1, q3 = quartiles(values)
    tail = tail_percentile(values)
    return {
        "value": statistics.median(values),
        "unit": unit,
        "n": len(values),
        "q1": q1,
        "q3": q3,
        "tail": None if tail is None else {"p": tail[0], "value": tail[1]},
    }
