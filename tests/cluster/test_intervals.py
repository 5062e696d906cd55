"""The earliest-gap interval schedule shared by network links and the
accelerator lookup pipeline."""

from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.intervals import IntervalSchedule


def _overlaps(start: float, end: float, intervals) -> bool:
    return any(start < busy_end and busy_start < end
               for busy_start, busy_end in intervals)


def _earliest_fit(intervals, at: float, duration: float) -> float:
    """Brute force: the earliest fitting start is ``at`` or the end of
    some busy interval after it."""
    candidates = sorted({at} | {end for _, end in intervals if end > at})
    return next(t for t in candidates
                if not _overlaps(t, t + duration, intervals))


CLAIMS = st.lists(
    st.tuples(st.integers(0, 200), st.integers(1, 40)),
    min_size=1, max_size=40)


class TestIntervalSchedule:
    def test_claims_queue_behind_a_busy_resource(self):
        schedule = IntervalSchedule()
        assert schedule.claim(10.0, 5.0) == 10.0
        assert schedule.claim(12.0, 5.0) == 15.0
        # a gap before the first claim still fits
        assert schedule.claim(0.0, 10.0) == 0.0
        assert schedule.intervals == [(0.0, 10.0), (10.0, 15.0),
                                      (15.0, 20.0)]

    def test_far_future_claim_does_not_block_earlier_work(self):
        schedule = IntervalSchedule()
        schedule.claim(1000.0, 50.0)
        assert schedule.claim(5.0, 50.0) == 5.0

    @given(CLAIMS)
    def test_claims_take_the_earliest_gap_and_never_overlap(self, claims):
        schedule = IntervalSchedule()
        for at, duration in claims:
            at, duration = float(at), float(duration)
            before = list(schedule.intervals)
            start = schedule.claim(at, duration)
            assert start >= at
            assert start == _earliest_fit(before, at, duration)
        intervals = schedule.intervals
        assert intervals == sorted(intervals)
        assert len(intervals) == len(claims)
        for (_, end), (next_start, _) in zip(intervals, intervals[1:]):
            assert end <= next_start
