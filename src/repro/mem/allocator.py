"""Simulated user-space heap allocator.

Index nodes and key-value records live at virtual addresses handed out by
this allocator.  It is a size-class bump allocator in the style of jemalloc
(which Redis uses): each size class carves objects out of its own runs of
pages.  Freed objects go on a per-class free list and are reused LIFO.

The layout consequences matter for the experiments: objects of one size
class are densely packed (64-byte records pack 64 per page), different
classes live on different pages, and a long-running store's records end
up scattered across many pages — the reason TLB reach is exceeded in the
paper's workloads.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Sequence

from ..errors import AllocationError, ConfigError
from ..params import PAGE_BYTES
from .address_space import AddressSpace

#: jemalloc-like small size classes (bytes), followed by page-multiple
#: classes generated on demand for large objects.
_BASE_CLASSES = [
    8, 16, 24, 32, 40, 48, 56, 64, 80, 96, 112, 128,
    160, 192, 224, 256, 320, 384, 448, 512, 640, 768, 896, 1024,
    1280, 1536, 1792, 2048, 2560, 3072, 3584, 4096,
]

#: every small class is a multiple of 8 bytes, so the class of a small
#: request is a table lookup by its count of 8-byte granules
_GRANULE = 8
_CLASS_OF_GRANULES = [0] + [
    next(cls for cls in _BASE_CLASSES if g * _GRANULE <= cls)
    for g in range(1, _BASE_CLASSES[-1] // _GRANULE + 1)
]

#: Pages fetched from the address space per size-class refill.
_RUN_PAGES = 16


class BumpAllocator:
    """Size-class segregated allocator over an :class:`AddressSpace`."""

    def __init__(self, space: AddressSpace) -> None:
        self.space = space
        self._cursor: Dict[int, int] = {}
        self._limit: Dict[int, int] = {}
        self._free: Dict[int, List[int]] = {}
        self._size_of: Dict[int, int] = {}
        self.bytes_allocated = 0
        self.objects_live = 0

    @staticmethod
    def size_class(size: int) -> int:
        """Round a request up to its size class."""
        if size <= 0:
            raise ConfigError("allocation size must be positive")
        if size <= _BASE_CLASSES[-1]:
            return _CLASS_OF_GRANULES[(size + _GRANULE - 1) // _GRANULE]
        # large objects: whole pages
        return ((size + PAGE_BYTES - 1) // PAGE_BYTES) * PAGE_BYTES

    def alloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the object's virtual address."""
        cls = self.size_class(size)
        free = self._free.get(cls)
        if free:
            va = free.pop()
        else:
            va = self._cursor.get(cls, 0)
            if va + cls > self._limit.get(cls, 0):
                va = self._new_run(cls)
            self._cursor[cls] = va + cls
        self._size_of[va] = cls
        self.bytes_allocated += cls
        self.objects_live += 1
        return va

    def alloc_many(self, sizes: Sequence[int], count: int) -> List[List[int]]:
        """Allocate ``count`` rounds of one object per entry of ``sizes``.

        Returns one list of VAs per entry of ``sizes``, in round order:
        exactly the VAs that ``count`` rounds of ``alloc(s) for s in
        sizes`` return, with the allocator and the address space left in
        the same state (the same ``alloc_region`` calls, in the same
        order, so the same frames back the same pages).  Each class's
        refill points are arithmetic; the refills of all classes are
        issued in (round, position) order.

        The bulk path never reuses freed objects: a non-empty free list
        of a requested class raises :class:`AllocationError`.
        """
        classes = [self.size_class(size) for size in sizes]
        columns: List[List[int]] = [[] for _ in sizes]
        if count <= 0:
            return columns
        if any(self._free.get(cls) for cls in classes):
            raise AllocationError("bulk allocation over a non-empty free list")
        positions: Dict[int, List[int]] = {}
        for position, cls in enumerate(classes):
            positions.setdefault(cls, []).append(position)

        # a class's objects are numbered in allocation order; object
        # ``seq`` is made in round seq // k at position where[seq % k];
        # it opens a run when it is the first past the current run's
        # room, or a whole number of runs beyond that
        refills = []
        room: Dict[int, int] = {}
        for cls, where in positions.items():
            k = len(where)
            room[cls] = min((self._limit.get(cls, 0)
                             - self._cursor.get(cls, 0)) // cls, k * count)
            for seq in range(room[cls], k * count, _run_bytes(cls) // cls):
                refills.append((seq // k, where[seq % k], cls))
        refills.sort()

        bases: Dict[int, List[int]] = {cls: [] for cls in positions}
        for _, _, cls in refills:
            bases[cls].append(self._new_run(cls))

        size_of = self._size_of
        for cls, where in positions.items():
            total = len(where) * count
            cursor = self._cursor.get(cls, 0)
            vas = list(range(cursor, cursor + room[cls] * cls, cls))
            per_run = _run_bytes(cls) // cls
            for base in bases[cls]:
                vas.extend(range(base, base + min(per_run, total - len(vas))
                                 * cls, cls))
            self._cursor[cls] = vas[-1] + cls
            size_of.update(zip(vas, repeat(cls)))
            for t, position in enumerate(where):
                columns[position] = vas[t::len(where)]
            self.bytes_allocated += cls * total
            self.objects_live += total
        return columns

    def free(self, va: int) -> None:
        """Return an object to its size-class free list."""
        cls = self._size_of.pop(va, None)
        if cls is None:
            raise AllocationError(f"free of unallocated address {va:#x}")
        self._free.setdefault(cls, []).append(va)
        self.bytes_allocated -= cls
        self.objects_live -= 1

    def allocated_size(self, va: int) -> int:
        """Size class of a live object (raises if not live)."""
        cls = self._size_of.get(va)
        if cls is None:
            raise AllocationError(f"{va:#x} is not a live allocation")
        return cls

    def _new_run(self, cls: int) -> int:
        """Map a fresh run for ``cls``; returns its base (its first object)."""
        base = self.space.alloc_region(_run_bytes(cls))
        self._limit[cls] = base + _run_bytes(cls)
        return base


def _run_bytes(cls: int) -> int:
    """Bytes of one run of size class ``cls``: 16 pages, or one object
    of a larger class."""
    return max(_RUN_PAGES * PAGE_BYTES, cls)
