"""Metric arithmetic shared by the harness, its tests and the spread script."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest percentile of values that has at least `beyond` samples above it.

    Percentiles use the nearest-rank rule: the k-th smallest of n samples is
    the 100*k/n-th percentile, and n - k samples lie beyond it. So the answer
    is the (beyond+1)-th largest value, at percentile 100*(n-beyond)/n.

    Returns (value, percentile, sample count).

    Raises:
        ValueError: with `beyond` samples or fewer no percentile qualifies.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = n - beyond
    if rank < 1:
        raise ValueError(f"{n} samples leave no percentile with {beyond} beyond it")
    return ordered[rank - 1], 100.0 * rank / n, n


def rate(part: int, whole: int) -> float:
    """part / whole, with 0/0 read as 0 (nothing attempted, nothing failed)."""
    return part / whole if whole else 0.0


def spread(values) -> float:
    """Interquartile distance as a share of the median, as the acceptance runs compute it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
