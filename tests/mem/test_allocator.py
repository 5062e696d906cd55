"""Unit tests for the size-class heap allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError, ConfigError
from repro.mem.address_space import AddressSpace
from repro.mem.allocator import BumpAllocator
from repro.params import PAGE_BYTES


class TestSizeClasses:
    def test_round_up_to_class(self):
        assert BumpAllocator.size_class(1) == 8
        assert BumpAllocator.size_class(100) == 112
        assert BumpAllocator.size_class(64) == 64

    def test_large_objects_round_to_pages(self):
        assert BumpAllocator.size_class(5000) == 2 * PAGE_BYTES

    def test_zero_size_rejected(self):
        with pytest.raises(ConfigError):
            BumpAllocator.size_class(0)

    def test_every_small_size_gets_the_smallest_fitting_class(self):
        classes = [8, 16, 24, 32, 40, 48, 56, 64, 80, 96, 112, 128,
                   160, 192, 224, 256, 320, 384, 448, 512, 640, 768, 896,
                   1024, 1280, 1536, 1792, 2048, 2560, 3072, 3584, 4096]
        for size in range(1, 4097):
            expected = next(cls for cls in classes if size <= cls)
            assert BumpAllocator.size_class(size) == expected
        assert BumpAllocator.size_class(4097) == 2 * PAGE_BYTES


class TestAllocFree:
    def test_alloc_returns_mapped_address(self, alloc):
        va = alloc.alloc(64)
        assert alloc.space.translate(va) is not None

    def test_same_class_objects_are_dense(self, alloc):
        a = alloc.alloc(64)
        b = alloc.alloc(64)
        assert b - a == 64

    def test_different_classes_live_apart(self, alloc):
        a = alloc.alloc(64)
        b = alloc.alloc(128)
        assert abs(b - a) >= PAGE_BYTES

    def test_free_then_alloc_reuses_lifo(self, alloc):
        a = alloc.alloc(64)
        b = alloc.alloc(64)
        alloc.free(a)
        alloc.free(b)
        assert alloc.alloc(64) == b
        assert alloc.alloc(64) == a

    def test_double_free_rejected(self, alloc):
        va = alloc.alloc(64)
        alloc.free(va)
        with pytest.raises(AllocationError):
            alloc.free(va)

    def test_free_of_wild_pointer_rejected(self, alloc):
        with pytest.raises(AllocationError):
            alloc.free(0x1234)

    def test_accounting(self, alloc):
        a = alloc.alloc(60)
        assert alloc.objects_live == 1
        assert alloc.bytes_allocated == 64  # rounded to class
        alloc.free(a)
        assert alloc.objects_live == 0
        assert alloc.bytes_allocated == 0

    def test_allocated_size(self, alloc):
        va = alloc.alloc(100)
        assert alloc.allocated_size(va) == 112
        alloc.free(va)
        with pytest.raises(AllocationError):
            alloc.allocated_size(va)

    def test_many_allocations_stay_distinct(self, alloc):
        vas = [alloc.alloc(24) for _ in range(1000)]
        assert len(set(vas)) == 1000


class _RecordingSpace(AddressSpace):
    """An address space that logs every region it hands out."""

    def __init__(self):
        super().__init__()
        self.regions = []

    def alloc_region(self, size_bytes, kernel=False):
        base = super().alloc_region(size_bytes, kernel=kernel)
        self.regions.append((base, size_bytes, kernel))
        return base


def _allocator_state(alloc):
    space = alloc.space
    pages = {}
    for base, size, _ in space.regions:
        for offset in range(0, size, PAGE_BYTES):
            pages[base + offset] = space.translate(base + offset)
    return {
        "cursor": alloc._cursor,
        "limit": alloc._limit,
        "size_of": alloc._size_of,
        "bytes": alloc.bytes_allocated,
        "live": alloc.objects_live,
        "regions": space.regions,
        "next_user_va": space._next_user_va,
        "frames": space.frames.frames_allocated,
        "pages": pages,
    }


#: small classes (repeats likely), page-multiple classes, and classes
#: larger than one 16-page run
_SIZES = st.one_of(
    st.sampled_from([8, 24, 40, 64, 80, 100, 112]),
    st.integers(1, 4096),
    st.integers(4097, 3 * PAGE_BYTES),
    st.integers(16 * PAGE_BYTES - 100, 18 * PAGE_BYTES),
)
_PRELUDE = st.lists(st.one_of(
    st.tuples(st.just("alloc"), _SIZES),
    st.tuples(st.just("region"), st.integers(1, 3 * PAGE_BYTES)),
    st.tuples(st.just("kernel"), st.integers(1, PAGE_BYTES)),
), max_size=12)


def _fresh(prelude):
    alloc = BumpAllocator(_RecordingSpace())
    for op, arg in prelude:
        if op == "alloc":
            alloc.alloc(arg)
        else:
            alloc.space.alloc_region(arg, kernel=(op == "kernel"))
    return alloc


class TestAllocMany:
    @settings(max_examples=60, deadline=None)
    @given(prelude=_PRELUDE, sizes=st.lists(_SIZES, max_size=5),
           count=st.integers(0, 150))
    def test_equals_the_per_object_loop(self, prelude, sizes, count):
        loop, bulk = _fresh(prelude), _fresh(prelude)
        expected = [[] for _ in sizes]
        for _ in range(count):
            for column, size in zip(expected, sizes):
                column.append(loop.alloc(size))
        assert bulk.alloc_many(sizes, count) == expected
        assert _allocator_state(bulk) == _allocator_state(loop)

    def test_repeated_class_interleaves_by_position(self, alloc):
        a, b = alloc.alloc_many([64, 60], 3)
        assert a == [a[0], a[0] + 128, a[0] + 256]
        assert b == [x + 64 for x in a]

    def test_non_empty_free_list_raises(self, alloc):
        va = alloc.alloc(64)
        alloc.alloc(64)
        alloc.free(va)
        with pytest.raises(AllocationError):
            alloc.alloc_many([24, 64], 10)
        # refused before anything was allocated
        assert alloc.objects_live == 1
