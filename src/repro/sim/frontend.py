"""Lookup front-ends: the pseudocode of Fig. 4 and its ablations.

Every front-end wraps an index structure and implements ``get(key)``:

* :class:`BaselineFrontend` — ``getValueSlow`` only (the unmodified
  program).
* :class:`SLBFrontend` — probe the software search-lookaside buffer
  first; record misses in its log table (Section IV-A).
* :class:`STLTFrontend` — the paper's fast path: fast hash, ``loadVA``,
  validate, fall back to the slow path, then ``insertSTLT``.  Also
  drives the STLT-VA ablation (``va_only`` STU).
* :class:`SoftwareSTLTFrontend` — the STLT-SW ablation of Fig. 19: the
  same table kept in user memory and accessed with ordinary loads and
  stores; no new instructions, no STB, VAs only.

Validation (step ③ of Fig. 4) is *semantic*, not bookkeeping: a VA
returned by the fast path is dereferenced (a timed record access) and the
key bytes are compared.  A stale VA whose record was freed or moved fails
the comparison and falls through to the slow path, exactly as the real
software would.
"""

from __future__ import annotations

import abc
from typing import Callable, Optional

from ..core.stu import STU
from ..hashes.registry import HashSpec
from ..kvs.base import Index, SimContext
from ..kvs.records import RECORD_HEADER_BYTES, Record
from ..mem.types import AccessKind
from ..slb.slb import SLBCache
from ..core.stlt import STLT

#: extra cycles a software set scan pays for branch mispredictions the
#: hardware scan avoids (Section IV-E: the instructions "avoid frequent
#: branch mispredictions and enable concurrent operations on STLT set
#: scanning")
SW_SCAN_PENALTY_CYCLES = 18


class LookupFrontend(abc.ABC):
    """get(key) -> record, with whatever fast path the variant has."""

    name = "frontend"

    def __init__(self, ctx: SimContext, index: Index) -> None:
        self.ctx = ctx
        self.index = index
        self.gets = 0
        self.fast_hits = 0

    @abc.abstractmethod
    def get(self, key: bytes) -> Optional[Record]:
        """Timed lookup."""

    def on_insert(self, key: bytes, record: Record) -> None:
        """Hook for timed inserts; the paper leaves insert paths alone."""

    def on_record_moved(self, record: Record, old_va: int) -> None:
        """Hook for the record-movement protocol (Section III-F)."""

    @property
    def fast_miss_rate(self) -> float:
        """Miss rate of the fast-path table over this front-end's GETs."""
        if not self.gets:
            return 0.0
        return 1.0 - self.fast_hits / self.gets

    # -- shared validation ---------------------------------------------

    def _validate(self, va: int, key: bytes) -> Optional[Record]:
        """Dereference a fast-path VA and compare keys (timed)."""
        record = self.ctx.records.by_va.get(va)
        if record is None or record.va != va:
            # stale pointer: the load still happens, the compare fails
            self.ctx.mem.access(va, RECORD_HEADER_BYTES + len(key),
                                kind=AccessKind.RECORD)
            self.ctx.charge_compare()
            return None
        self.ctx.records.access_for_compare(record)
        self.ctx.charge_compare()
        if record.key != key:
            return None
        return record


class BaselineFrontend(LookupFrontend):
    """The unmodified program: slow path only."""

    name = "baseline"

    def get(self, key: bytes) -> Optional[Record]:
        self.gets += 1
        return self.index.lookup(key)


class SLBFrontend(LookupFrontend):
    """Software search-lookaside buffer in front of the slow path."""

    name = "slb"

    def __init__(self, ctx: SimContext, index: Index, slb: SLBCache) -> None:
        super().__init__(ctx, index)
        self.slb = slb

    def get(self, key: bytes) -> Optional[Record]:
        self.gets += 1
        h = self.slb.hash_key(key)
        va = self.slb.probe(h)
        if va:
            record = self._validate(va, key)
            if record is not None:
                self.fast_hits += 1
                return record
        record = self.index.lookup(key)
        if record is not None:
            self.slb.record_miss(h, record.va)
        return record

    def on_insert(self, key: bytes, record: Record) -> None:
        # a fresh key enters the log/cache tables immediately; without
        # this, the latest workload's measured miss rate would sit on the
        # compulsory first-GET floor instead of the conflict behaviour
        # Table V reports (see EXPERIMENTS.md, methodology)
        h = self.slb.hash_key(key)
        self.slb.record_miss(h, record.va)

    def on_record_moved(self, record: Record, old_va: int) -> None:
        # SLB is pure software: the application must scrub stale VAs itself
        self.slb.invalidate_va(old_va)


class STLTFrontend(LookupFrontend):
    """The paper's design: loadVA / insertSTLT around the slow path."""

    name = "stlt"

    def __init__(
        self,
        ctx: SimContext,
        index: Index,
        stu: STU,
        fast_hash: HashSpec,
        integer_transform: Optional[Callable[[int], int]] = None,
    ) -> None:
        super().__init__(ctx, index)
        self.stu = stu
        self.fast_hash = fast_hash
        self.integer_transform = integer_transform

    def _integer(self, key: bytes) -> int:
        self.ctx.mem.tick(self.fast_hash.cost_cycles(len(key)), attr="hash")
        integer = self.fast_hash(key)
        if self.integer_transform is not None:
            integer = self.integer_transform(integer)
        return integer

    def get(self, key: bytes) -> Optional[Record]:
        self.gets += 1
        integer = self._integer(key)
        result = self.stu.load_va(integer)
        if result.va:
            record = self._validate(result.va, key)
            if record is not None:
                self.fast_hits += 1
                return record
        record = self.index.lookup(key)
        if record is not None:
            self.stu.insert_stlt(integer, record.va)
        return record

    def on_insert(self, key: bytes, record: Record) -> None:
        # the Section III-G "optimization [that] may modify the insertion
        # function as well to ensure a most recently inserted record also
        # presents in STLT"; required at simulation scale for the latest
        # workload's miss rates to reflect conflicts rather than the
        # compulsory first-GET floor (see EXPERIMENTS.md)
        self.stu.insert_stlt(self._integer(key), record.va)

    def on_record_moved(self, record: Record, old_va: int) -> None:
        # Section III-F: after moving a record, the programmer issues
        # insertSTLT for the new location, which overwrites the row
        self.stu.insert_stlt(self._integer(record.key), record.va)


class SoftwareSTLTFrontend(LookupFrontend):
    """STLT-SW: the same table in user memory, plain loads and stores."""

    name = "stlt_sw"

    def __init__(
        self,
        ctx: SimContext,
        index: Index,
        table: STLT,
        table_va: int,
        fast_hash: HashSpec,
    ) -> None:
        super().__init__(ctx, index)
        self.table = table
        self.table_va = table_va
        self.fast_hash = fast_hash

    def _set_va(self, set_index: int) -> int:
        return self.table_va + set_index * self.table.ways * 16

    def get(self, key: bytes) -> Optional[Record]:
        self.gets += 1
        mem = self.ctx.mem
        mem.tick(self.fast_hash.cost_cycles(len(key)), attr="hash")
        integer = self.fast_hash(key)
        set_index, way = self.table.scan(integer)
        # software set scan: ordinary loads through the TLBs plus the
        # branch-misprediction penalty hardware avoids
        mem.access(self._set_va(set_index), self.table.ways * 16,
                   kind=AccessKind.STLT)
        mem.tick(SW_SCAN_PENALTY_CYCLES, attr="stlt")
        if way is not None:
            row = self.table.read_row(set_index, way)
            self.table.touch(set_index, way)
            mem.access(self._set_va(set_index) + way * 16, 8, write=True,
                       kind=AccessKind.STLT)
            record = self._validate(row.va, key)
            if record is not None:
                self.fast_hits += 1
                return record
        record = self.index.lookup(key)
        if record is not None:
            set_index, way = self.table.insert(integer, record.va, 0)
            mem.access(self._set_va(set_index) + way * 16, 16, write=True,
                       kind=AccessKind.STLT)
        return record

    def on_insert(self, key: bytes, record: Record) -> None:
        mem = self.ctx.mem
        mem.tick(self.fast_hash.cost_cycles(len(key)), attr="hash")
        integer = self.fast_hash(key)
        set_index, way = self.table.insert(integer, record.va, 0)
        mem.access(self._set_va(set_index) + way * 16, 16, write=True,
                   kind=AccessKind.STLT)

    def on_record_moved(self, record: Record, old_va: int) -> None:
        self.table.invalidate_va(old_va)
