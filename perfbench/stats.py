"""Order statistics and failure accounting shared by the workloads."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

# a reported percentile needs at least this many samples beyond it
MIN_TAIL_SAMPLES = 10


def nearest_rank(values, pct):
    """The pct-th percentile by the nearest-rank rule (1 <= rank <= len)."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_supported(count, pct):
    """True when at least MIN_TAIL_SAMPLES of count samples lie beyond pct.

    With the nearest-rank rule the pct-th percentile is sample number
    ceil(pct/100 * count); the samples after it are the ones beyond it.
    """
    if count < 1:
        return False
    rank = max(1, math.ceil(pct / 100.0 * count))
    return count - rank >= MIN_TAIL_SAMPLES


def percentile_or_none(values, pct):
    """nearest_rank(values, pct), or None when the sample cannot support it."""
    if not tail_supported(len(values), pct):
        return None
    return nearest_rank(values, pct)


def median(values):
    """Median, averaging the middle pair for an even count."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


@dataclass
class Tally:
    """Attempted and failed ops, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)

    def record(self, reason=None, count=1):
        """Count ``count`` ops; a non-None reason marks them failed."""
        self.attempted += count
        if reason is not None:
            self.failed += count
            self.reasons[reason] += count

    @property
    def fail_ratio(self):
        return self.failed / self.attempted if self.attempted else 0.0
