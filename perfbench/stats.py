"""Summary statistics for latency samples."""

from __future__ import annotations

import math
import statistics

# Percentiles the tail is chosen from, lowest first. It stops at p99: on a
# shared 2-core machine the few samples beyond p99.9 of a sub-millisecond
# operation are scheduler and neighbour pauses, not the program, and that
# percentile moved by 40% between runs of the same code.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0)

# A tail percentile is reported only when at least this many samples lie
# beyond it, so that it rests on more than a handful of outliers.
MIN_BEYOND = 10


def nearest_rank(sorted_values, q: float) -> tuple[float, int]:
    """The q-th percentile by nearest rank, and how many samples lie beyond it."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("no samples")
    k = min(n, max(1, math.ceil(q / 100.0 * n)))
    return sorted_values[k - 1], n - k


def tail(samples) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest percentile of
    TAIL_LADDER with at least MIN_BEYOND samples beyond it.

    With fewer than 2 * MIN_BEYOND samples no percentile qualifies and the
    median rank is returned; the beyond count then shows the shortfall.
    """
    ordered = sorted(samples)
    best = (TAIL_LADDER[0], *nearest_rank(ordered, TAIL_LADDER[0]))
    for q in TAIL_LADDER[1:]:
        value, beyond = nearest_rank(ordered, q)
        if beyond < MIN_BEYOND:
            break
        best = (q, value, beyond)
    return best


def median(samples) -> float:
    return float(statistics.median(samples))


def slow_quarter(samples, size: int) -> list[float]:
    """The samples of the slowest quarter of the run.

    The run is cut into consecutive windows of `size` samples (a trailing
    partial window is dropped, unless it is the only one); the quarter of
    windows with the largest total, at least one, is pooled in run order.
    On a shared host the speed of a virtual CPU moves in phases of seconds
    to minutes. Its busy speed is a steady floor, while its idle speed
    depends on how idle the host happens to be, so statistics over the
    slowest windows vary least between runs of the same code.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("no samples")
    windows = [samples[i : i + size] for i in range(0, len(samples) - size + 1, size)]
    if not windows:
        windows = [samples]
    keep = math.ceil(len(windows) / 4)
    slowest = sorted(range(len(windows)), key=lambda k: (-sum(windows[k]), k))[:keep]
    return [x for k in sorted(slowest) for x in windows[k]]
