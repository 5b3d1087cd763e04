"""The benchmark's own arithmetic: percentiles, self time and error rate.

Kept free of fleetmaint imports so the unit tests run without the package.
"""

from __future__ import annotations

import math

# percentiles tried for the latency tail, lowest first
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def nearest_rank(n: int, pct: float) -> int:
    """1-based rank of the pct-th percentile among n sorted samples."""
    if n < 1:
        raise ValueError("need at least one sample")
    return min(n, max(1, math.ceil(pct / 100.0 * n - 1e-9)))


def samples_beyond(n: int, pct: float) -> int:
    """Samples ranked strictly above the pct-th percentile."""
    return n - nearest_rank(n, pct)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of the values."""
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), pct) - 1]


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least MIN_BEYOND samples beyond it."""
    allowed = [p for p in TAIL_LADDER if samples_beyond(n, p) >= MIN_BEYOND]
    return allowed[-1] if allowed else None


def latency_summary(seconds) -> dict:
    """p50 and the tail percentile allowed by the sample count, in ms."""
    n = len(seconds)
    out = {"samples": n, "p50_ms": percentile(seconds, 50.0) * 1e3}
    tail = tail_percentile(n)
    if tail is not None:
        out["tail_pct"] = tail
        out["tail_ms"] = percentile(seconds, tail) * 1e3
        out["tail_beyond"] = samples_beyond(n, tail)
    return out


def error_rate(failed: int, attempted: int) -> float:
    """Failed checks and operations over those attempted."""
    if attempted < 1:
        raise ValueError("nothing was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    ``spans`` holds (span_id, parent_id, start, end) tuples; parent_id is
    None for a root span.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, parent, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - covered(children.get(sid, ()), start, end)
        for sid, _, start, end in spans
    }
