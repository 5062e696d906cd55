"""Front-end behaviour tests (the Fig. 4 pseudocode and ablations)."""

import pytest

from repro.core.os_interface import OSInterface
from repro.core.stlt import STLT
from repro.core.stu import STU
from repro.hashes.registry import get_hash
from repro.kvs import make_index
from repro.sim.frontend import (
    BaselineFrontend,
    SLBFrontend,
    STLTFrontend,
    SoftwareSTLTFrontend,
)
from repro.slb.slb import SLBCache
from repro.workloads.keys import key_bytes


def build_index(ctx, n=64):
    index = make_index("unordered_map", ctx, expected_keys=256)
    records = []
    for i in range(n):
        key = key_bytes(i)
        rec = ctx.records.create(key, 32)
        index.build_insert(key, rec)
        records.append(rec)
    return index, records


@pytest.fixture
def stlt_frontend(ctx):
    index, records = build_index(ctx)
    stu = STU(ctx.mem)
    osi = OSInterface(ctx.space, ctx.mem, stu)
    osi.stlt_alloc(1 << 10)
    fe = STLTFrontend(ctx, index, stu, get_hash("xxh3"))
    return fe, records, stu


class TestBaseline:
    def test_get_delegates_to_index(self, ctx):
        index, records = build_index(ctx)
        fe = BaselineFrontend(ctx, index)
        assert fe.get(key_bytes(3)) is records[3]
        assert fe.get(key_bytes(999)) is None

    def test_no_fast_hits_counted(self, ctx):
        index, _ = build_index(ctx)
        fe = BaselineFrontend(ctx, index)
        fe.get(key_bytes(1))
        assert fe.fast_hits == 0


class TestSTLTFrontend:
    def test_first_get_misses_second_hits(self, stlt_frontend):
        fe, records, stu = stlt_frontend
        assert fe.get(key_bytes(5)) is records[5]
        assert fe.fast_hits == 0
        assert fe.get(key_bytes(5)) is records[5]
        assert fe.fast_hits == 1

    def test_miss_inserts_for_future(self, stlt_frontend):
        fe, _, stu = stlt_frontend
        fe.get(key_bytes(7))
        assert stu.insert_count == 1

    def test_absent_key_returns_none_and_no_insert(self, stlt_frontend):
        fe, _, stu = stlt_frontend
        assert fe.get(key_bytes(999)) is None
        assert stu.insert_count == 0

    def test_stale_va_falls_back_to_slow_path(self, ctx, stlt_frontend):
        fe, records, stu = stlt_frontend
        fe.get(key_bytes(9))  # cached now
        # move the record: its VA changes, the STLT row goes stale
        old_va = ctx.records.move(records[9])
        fe.index.remove(key_bytes(9))
        fe.index.build_insert(key_bytes(9), records[9])
        result = fe.get(key_bytes(9))
        assert result is records[9]
        assert result.va != old_va

    def test_record_moved_hook_refreshes_row(self, ctx, stlt_frontend):
        fe, records, stu = stlt_frontend
        fe.get(key_bytes(4))
        old_va = ctx.records.move(records[4])
        fe.on_record_moved(records[4], old_va)
        hits_before = fe.fast_hits
        assert fe.get(key_bytes(4)) is records[4]
        assert fe.fast_hits == hits_before + 1

    def test_fast_miss_rate(self, stlt_frontend):
        fe, _, _ = stlt_frontend
        fe.get(key_bytes(1))
        fe.get(key_bytes(1))
        assert fe.fast_miss_rate == pytest.approx(0.5)

    def test_integer_transform_applied(self, ctx):
        index, records = build_index(ctx)
        stu = STU(ctx.mem)
        osi = OSInterface(ctx.space, ctx.mem, stu)
        osi.stlt_alloc(1 << 10)
        seen = []

        def transform(integer):
            seen.append(integer)
            return integer ^ 1

        fe = STLTFrontend(ctx, index, stu, get_hash("xxh3"),
                          integer_transform=transform)
        fe.get(key_bytes(2))
        assert seen


class TestSLBFrontend:
    def test_hit_after_admission(self, ctx):
        index, records = build_index(ctx)
        slb = SLBCache(ctx.space, ctx.mem, num_entries=7 * 32,
                       fast_hash=get_hash("xxh3"))
        fe = SLBFrontend(ctx, index, slb)
        fe.get(key_bytes(11))
        assert fe.get(key_bytes(11)) is records[11]
        assert fe.fast_hits >= 1

    def test_on_insert_populates(self, ctx):
        index, _ = build_index(ctx)
        slb = SLBCache(ctx.space, ctx.mem, num_entries=7 * 32,
                       fast_hash=get_hash("xxh3"))
        fe = SLBFrontend(ctx, index, slb)
        key = key_bytes(200)
        rec = ctx.records.create(key, 32)
        index.build_insert(key, rec)
        fe.on_insert(key, rec)
        assert fe.get(key) is rec
        assert fe.fast_hits == 1


class TestSoftwareSTLT:
    def test_hit_path(self, ctx):
        index, records = build_index(ctx)
        rows = 1 << 10
        table = STLT(rows)
        table_va = ctx.space.alloc_region(rows * 16)
        fe = SoftwareSTLTFrontend(ctx, index, table, table_va,
                                  get_hash("xxh3"))
        fe.get(key_bytes(3))
        assert fe.get(key_bytes(3)) is records[3]
        assert fe.fast_hits == 1

    def test_table_traffic_is_virtual(self, ctx):
        index, _ = build_index(ctx)
        rows = 1 << 10
        table = STLT(rows)
        table_va = ctx.space.alloc_region(rows * 16)
        fe = SoftwareSTLTFrontend(ctx, index, table, table_va,
                                  get_hash("xxh3"))
        tlb_events_before = ctx.mem.stats.dtlb_hits + ctx.mem.stats.dtlb_misses
        fe.get(key_bytes(3))
        assert ctx.mem.stats.dtlb_hits + ctx.mem.stats.dtlb_misses \
            > tlb_events_before

