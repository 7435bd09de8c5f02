"""Summary statistics and gates shared by the benchmark's runner.

Kept free of any import from the program under test, so the
benchmark's own tests run without it.
"""

from __future__ import annotations

import math
import statistics

#: Percentiles the tail rule considers, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

#: Samples that must lie strictly beyond a reported percentile.
TAIL_MIN_BEYOND = 10


class DigestMismatch(Exception):
    """Two runs that must produce identical datasets did not."""


def percentile(values, p: float) -> float:
    """Linear-interpolated ``p``-th percentile (numpy's default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(values) -> dict:
    """Median plus the highest percentile with at least
    :data:`TAIL_MIN_BEYOND` samples strictly beyond it.

    ``percentile`` and ``value`` are None when the sample is too small
    for any of :data:`TAIL_PERCENTILES`; ``n`` is always the sample
    count.
    """
    values = list(values)
    out = {"n": len(values),
           "median": statistics.median(values) if values else None,
           "percentile": None, "value": None}
    for p in TAIL_PERCENTILES:
        if not values:
            break
        cut = percentile(values, p)
        if sum(1 for v in values if v > cut) >= TAIL_MIN_BEYOND:
            out["percentile"], out["value"] = p, cut
            break
    return out


def quartile_spread(values) -> float:
    """Inter-quartile distance as a share of the median (0 for fewer
    than two samples)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else math.inf


def check_digests(digests: dict[str, str]) -> str:
    """The one digest every named run agrees on.

    ``digests`` maps a run's name ("rep 1", "traced", "resume") to its
    dataset digest; any disagreement raises :class:`DigestMismatch`
    naming the runs involved.
    """
    if not digests:
        raise DigestMismatch("no digest recorded")
    distinct = sorted(set(digests.values()))
    if len(distinct) > 1:
        groups = {d: sorted(k for k, v in digests.items() if v == d)
                  for d in distinct}
        detail = "; ".join(f"{d[:16]}: {', '.join(names)}"
                           for d, names in groups.items())
        raise DigestMismatch(f"dataset digests disagree ({detail})")
    return distinct[0]
