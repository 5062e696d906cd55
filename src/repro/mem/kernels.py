"""Bulk maintenance kernels over the flat tables of the STLT and SLB.

Record movement and the IPB-overflow slow path must scan a whole table
(``STLT.invalidate_va`` / ``scrub_pages``, ``SLBCache.invalidate_va``);
occupancy is a full count.  The helpers here run those scans as one
tight loop — or one numpy vector operation — instead of one Python call
per row.

numpy is strictly optional: the image may not carry it, and one CI leg
deliberately runs without it.  Every helper has a pure-Python fallback
that computes the identical answer, and the numpy path is only taken
for inputs large enough to amortise the array conversion.  The helpers
are *functional* (they return indices/counts and never mutate), so both
paths are trivially bit-identical: the caller applies the same
mutations in the same order either way.
"""

from __future__ import annotations

from typing import List, Sequence, Set

try:  # pragma: no cover - exercised by the numpy CI leg
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy leg
    _np = None

HAVE_NUMPY = _np is not None

#: below this many rows the array conversion costs more than the Python
#: loop it replaces; measured on the container this repo targets
_NUMPY_MIN_ROWS = 4096


def matching_indices(values: Sequence[int], target: int) -> List[int]:
    """Indices ``i`` with ``values[i] == target`` (ascending).

    The bulk kernel behind :meth:`repro.core.stlt.STLT.invalidate_va`:
    record movement must scrub every row holding the old VA, which is a
    full-table scan.
    """
    if HAVE_NUMPY and len(values) >= _NUMPY_MIN_ROWS:
        arr = _np.asarray(values, dtype=_np.int64)
        return _np.nonzero(arr == target)[0].tolist()
    return [i for i, v in enumerate(values) if v == target]


def rows_in_pages(vas: Sequence[int], vpns: Set[int],
                  page_shift: int) -> List[int]:
    """Indices of non-zero ``vas`` whose page number lies in ``vpns``.

    The bulk kernel behind :meth:`repro.core.stlt.STLT.scrub_pages`
    (the IPB-overflow slow path, Section III-D1 of the paper).
    """
    if HAVE_NUMPY and len(vas) >= _NUMPY_MIN_ROWS and vpns:
        arr = _np.asarray(vas, dtype=_np.int64)
        mask = arr != 0
        page = arr >> page_shift
        mask &= _np.isin(page, _np.fromiter(vpns, dtype=_np.int64,
                                            count=len(vpns)))
        return _np.nonzero(mask)[0].tolist()
    return [i for i, va in enumerate(vas)
            if va and (va >> page_shift) in vpns]


def occupancy_count(values: Sequence[int]) -> int:
    """How many entries are non-zero (live rows of a table)."""
    if HAVE_NUMPY and len(values) >= _NUMPY_MIN_ROWS:
        return int(_np.count_nonzero(
            _np.asarray(values, dtype=_np.int64)))
    return sum(1 for v in values if v)
