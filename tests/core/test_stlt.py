"""STLT table tests (Sections III-C and III-E)."""

import pytest

from repro.core.row import SUBINT_BITS, make_pte
from repro.core.stlt import STLT
from repro.errors import STLTError


def make_stlt(rows=64, ways=4, **kwargs):
    return STLT(rows, ways=ways, **kwargs)


def integer_for(set_index: int, subint: int, stlt: STLT) -> int:
    """Compose a hash integer mapping to (set_index, subint)."""
    return (set_index << SUBINT_BITS) | subint


class TestGeometry:
    def test_power_of_two_rows_required(self):
        with pytest.raises(STLTError):
            STLT(100)

    def test_ways_must_divide_rows(self):
        with pytest.raises(STLTError):
            STLT(64, ways=3)

    def test_nonpositive_ways_rejected(self):
        with pytest.raises(STLTError):
            STLT(64, ways=0)

    def test_size_bytes(self):
        assert make_stlt(rows=1024).size_bytes == 16 * 1024

    def test_set_index_uses_bits_above_subinteger(self):
        stlt = make_stlt(rows=64, ways=4)  # 16 sets
        integer = (5 << SUBINT_BITS) | 0x7FF
        assert stlt.set_index(integer) == 5
        assert stlt.sub_integer(integer) == 0x7FF

    def test_row_addresses_are_16_bytes_apart(self):
        stlt = make_stlt(base_pa=0x10000)
        assert stlt.row_paddr(0, 1) - stlt.row_paddr(0, 0) == 16
        assert stlt.set_paddr(1) - stlt.set_paddr(0) == 4 * 16

    def test_four_way_set_fits_one_cache_line(self):
        stlt = make_stlt(ways=4, base_pa=0)
        for s in range(stlt.num_sets):
            first = stlt.set_paddr(s) // 64
            last = (stlt.set_paddr(s) + 4 * 16 - 1) // 64
            assert first == last

    def test_eight_way_set_spans_two_lines(self):
        stlt = STLT(128, ways=8, base_pa=0)
        span = (stlt.set_paddr(0), stlt.set_paddr(0) + 8 * 16 - 1)
        assert span[1] // 64 - span[0] // 64 == 1


class TestInsertScan:
    def test_insert_then_scan_hits(self):
        stlt = make_stlt()
        integer = integer_for(3, 0x111, stlt)
        stlt.insert(integer, 0xABC000, make_pte(7))
        set_index, way = stlt.scan(integer)
        assert set_index == 3
        assert way is not None
        row = stlt.read_row(set_index, way)
        assert row.va == 0xABC000
        assert row.pte == make_pte(7)

    def test_scan_miss_on_empty_set(self):
        stlt = make_stlt()
        _, way = stlt.scan(integer_for(2, 0x222, stlt))
        assert way is None

    def test_different_subint_same_set_misses(self):
        stlt = make_stlt()
        stlt.insert(integer_for(1, 0x100, stlt), 0x1000, make_pte(1))
        _, way = stlt.scan(integer_for(1, 0x200, stlt))
        assert way is None

    def test_matching_subint_overwrites_in_place(self):
        stlt = make_stlt()
        integer = integer_for(0, 0x5, stlt)
        stlt.insert(integer, 0x1000, make_pte(1))
        stlt.insert(integer, 0x2000, make_pte(2))
        assert stlt.occupancy == 1
        _, way = stlt.scan(integer)
        assert stlt.read_row(0, way).va == 0x2000

    def test_fills_invalid_ways_before_evicting(self):
        stlt = make_stlt(ways=4)
        for i in range(4):
            stlt.insert(integer_for(0, i + 1, stlt), 0x1000 * (i + 1),
                        make_pte(i))
        assert stlt.occupancy == 4
        assert stlt.replacements == 0

    def test_lfu_replacement_by_counter(self):
        stlt = make_stlt(ways=2)
        a = integer_for(0, 0xA, stlt)
        b = integer_for(0, 0xB, stlt)
        c = integer_for(0, 0xC, stlt)
        stlt.insert(a, 0xA000, make_pte(1))
        stlt.insert(b, 0xB000, make_pte(2))
        # heat up row A so its counter grows
        for _ in range(50):
            s, w = stlt.scan(a)
            stlt.touch(s, w)
        stlt.insert(c, 0xC000, make_pte(3))  # must evict B (counter 0)
        assert stlt.scan(a)[1] is not None
        assert stlt.scan(b)[1] is None
        assert stlt.scan(c)[1] is not None

    def test_new_row_counter_starts_at_zero(self):
        stlt = make_stlt()
        integer = integer_for(0, 0x1, stlt)
        stlt.insert(integer, 0x1000, make_pte(1))
        s, w = stlt.scan(integer)
        assert stlt.read_row(s, w).counter == 0

    def test_multi_match_selects_one_row(self):
        # two rows with the same sub-integer (aliasing VAs): a partial-tag
        # collision; hardware picks one at random
        stlt = make_stlt(ways=4, seed=7)
        integer = integer_for(0, 0x9, stlt)
        stlt.insert(integer, 0x1000, make_pte(1))
        # forge the second matching row behind the API (different VA but
        # the same sub-integer would normally overwrite, so write directly)
        stlt._subints[1] = 0x9
        stlt._vas[1] = 0x2000
        stlt._ptes[1] = make_pte(2)
        seen = set()
        for _ in range(64):
            s, w = stlt.scan(integer)
            seen.add(stlt.read_row(s, w).va)
        assert seen == {0x1000, 0x2000}
        assert stlt.multi_matches > 0


class TestMaintenance:
    def test_clear(self):
        stlt = make_stlt()
        stlt.insert(integer_for(0, 1, stlt), 0x1000, make_pte(1))
        stlt.clear()
        assert stlt.occupancy == 0

    def test_scrub_pages_removes_matching_rows(self):
        stlt = make_stlt()
        stlt.insert(integer_for(0, 1, stlt), 0x1000, make_pte(1))
        stlt.insert(integer_for(1, 2, stlt), 0x2000, make_pte(2))
        scrubbed = stlt.scrub_pages({0x1000 >> 12})
        assert scrubbed == 1
        assert stlt.scan(integer_for(0, 1, stlt))[1] is None
        assert stlt.scan(integer_for(1, 2, stlt))[1] is not None

    def test_scrub_pages_handles_multiple_rows_per_page(self):
        stlt = make_stlt()
        stlt.insert(integer_for(0, 1, stlt), 0x1000, make_pte(1))
        stlt.insert(integer_for(2, 3, stlt), 0x1040, make_pte(1))
        assert stlt.scrub_pages({1}) == 2

    def test_invalidate_va(self):
        stlt = make_stlt()
        stlt.insert(integer_for(0, 1, stlt), 0x1000, make_pte(1))
        assert stlt.invalidate_va(0x1000) == 1
        assert stlt.occupancy == 0

    def test_hit_and_miss_rates(self):
        stlt = make_stlt()
        integer = integer_for(0, 1, stlt)
        stlt.insert(integer, 0x1000, make_pte(1))
        stlt.scan(integer)
        stlt.scan(integer_for(1, 1, stlt))
        assert stlt.hit_rate == pytest.approx(0.5)
        assert stlt.miss_rate == pytest.approx(0.5)

    def test_reset_stats(self):
        stlt = make_stlt()
        stlt.scan(integer_for(0, 1, stlt))
        stlt.reset_stats()
        assert stlt.lookups == 0


class TestFill:
    def test_fill_needs_an_empty_table(self):
        stlt = STLT(64, ways=4)
        stlt.insert(5 << SUBINT_BITS, 0x1000, 0)
        with pytest.raises(STLTError):
            stlt.fill([7], [0x2000])

    def test_fill_needs_non_zero_vas(self):
        stlt = STLT(64, ways=4)
        with pytest.raises(STLTError):
            stlt.fill([7, 8], [0x2000, 0])
        assert stlt.occupancy == 0

    def test_overflowing_set_replaces_way_zero(self):
        stlt = STLT(16, ways=4)
        integers = [(n << SUBINT_BITS * 2) | n for n in range(1, 7)]
        stlt.fill(integers, [0x1000 * n for n in range(1, 7)])
        # six entries, one set: ways 1..3 keep entries 2..4, and way 0
        # held entries 1, 5 and 6 in turn
        assert stlt._vas[:4] == [0x6000, 0x2000, 0x3000, 0x4000]
        assert stlt.replacements == 2 and stlt.inserts == 6
