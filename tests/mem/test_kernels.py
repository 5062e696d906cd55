"""The bulk scrub kernels behind the STLT and SLB table scans.

Every helper in :mod:`repro.mem.kernels` has a numpy path and a pure
fallback that must compute the identical answer (one CI leg runs
without numpy at all).
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.mem.kernels import (
    HAVE_NUMPY,
    _NUMPY_MIN_ROWS,
    matching_indices,
    occupancy_count,
    rows_in_pages,
)


def pure_matching(values, target):
    return [i for i, v in enumerate(values) if v == target]


def pure_rows_in_pages(vas, vpns, shift):
    return [i for i, va in enumerate(vas) if va and (va >> shift) in vpns]


class TestKernelHelpers:
    """numpy path == pure path, above and below the size threshold."""

    @given(st.lists(st.integers(0, 7), max_size=50),
           st.integers(0, 7))
    def test_matching_indices_small(self, values, target):
        assert matching_indices(values, target) == \
            pure_matching(values, target)

    def test_matching_indices_large(self):
        # above _NUMPY_MIN_ROWS the numpy path (when present) engages
        values = [(i * 37) % 11 for i in range(_NUMPY_MIN_ROWS + 100)]
        assert matching_indices(values, 3) == pure_matching(values, 3)

    @given(st.lists(st.integers(0, 1 << 16), max_size=40),
           st.sets(st.integers(0, 15), max_size=6))
    def test_rows_in_pages_small(self, vas, vpns):
        assert rows_in_pages(vas, vpns, 12) == \
            pure_rows_in_pages(vas, vpns, 12)

    def test_rows_in_pages_large(self):
        vas = [(i % 7) * 4096 for i in range(_NUMPY_MIN_ROWS + 50)]
        vpns = {1, 3, 5}
        assert rows_in_pages(vas, vpns, 12) == \
            pure_rows_in_pages(vas, vpns, 12)

    @given(st.lists(st.integers(0, 3), max_size=50))
    def test_occupancy_small(self, values):
        assert occupancy_count(values) == sum(1 for v in values if v)

    def test_occupancy_large(self):
        values = [i % 3 for i in range(_NUMPY_MIN_ROWS + 10)]
        assert occupancy_count(values) == sum(1 for v in values if v)

    def test_numpy_flag_reflects_import(self):
        # documents the matrix assumption: the helper module never
        # crashes for lack of numpy, it just reports it
        assert isinstance(HAVE_NUMPY, bool)
