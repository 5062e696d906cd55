"""Earliest-gap interval scheduling for a resource that serves one
claim at a time: a network link, an accelerator's lookup pipeline.

The cluster overlay simulates requests in arrival order but reserves a
request's whole trajectory — including work that starts long after it
queued, such as a response or an install — before later requests'
earlier work is processed.  A single ``free_at`` clock would make that
earlier work wait behind far-future reservations, an artifact of
processing order rather than of the modelled resource.  Gap scheduling
keeps the timeline causal whatever order claims are made in: a claim
takes the earliest gap at or after its ready time that fits it.
"""

from __future__ import annotations

import bisect
from typing import List, Tuple

__all__ = ["IntervalSchedule"]


class IntervalSchedule:
    """Sorted, non-overlapping ``(start, end)`` busy intervals."""

    __slots__ = ("intervals",)

    def __init__(self) -> None:
        self.intervals: List[Tuple[float, float]] = []

    def claim(self, at: float, duration: float) -> float:
        """Claim the earliest ``duration``-sized gap at or after
        ``at``; returns the claim's start time."""
        intervals = self.intervals
        # first interval that could overlap [at, at + duration)
        i = bisect.bisect_right(intervals, (at, float("inf")))
        if i and intervals[i - 1][1] > at:
            i -= 1  # the previous interval is still busy at ``at``
        start = at
        while i < len(intervals):
            busy_start, busy_end = intervals[i]
            if start + duration <= busy_start:
                break  # the gap before interval i fits
            if busy_end > start:
                start = busy_end
            i += 1
        intervals.insert(i, (start, start + duration))
        return start
