"""The paper's STLT design and its two Fig. 19 ablations.

* ``stlt``    — the STLT/STB/SPTW fast path: one shared IPB, one STU
  per core (STB + insertion buffer + SPTW), one kernel
  :class:`~repro.core.os_interface.OSInterface` spanning all STUs, one
  ``STLTalloc``, and real ``STLTFrontend`` objects.  Golden-pinned.
* ``stlt_va`` — the same hardware caching VAs only (no PTEs, so no STB
  hits): the STLT-VA ablation.
* ``stlt_sw`` — STLT-SW: the same table kept in user memory and
  accessed with ordinary loads and stores; no new instructions, no
  STB, VAs only, no extra hardware.

The hardware designs export ``engine.stus`` / ``engine.osi``, so the
chaos injector's ``STLTresize`` events and the IPB/scrub telemetry see
the table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..core.hwcost import HardwareCostReport, hardware_cost
from ..core.ipb import IPB
from ..core.os_interface import OSInterface
from ..core.row import make_pte
from ..core.stlt import STLT
from ..core.stu import STU
from ..hashes.registry import get_hash
from ..sim.frontend import (
    LookupFrontend,
    SoftwareSTLTFrontend,
    STLTFrontend,
)
from ..params import PAGE_SHIFT
from .base import TranslationAccel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..kvs.records import Record
    from ..mem.page_table import PageTable
    from ..params import MachineParams


def _present_ptes(page_table: "PageTable", vas: List[int]) -> List[int]:
    """The PTE of each VA's page (0 when unmapped), one page-table
    lookup per distinct page: records pack about 100 to a page."""
    pte_of = {}
    for vpn in {va >> PAGE_SHIFT for va in vas}:
        pfn = page_table.lookup(vpn)
        pte_of[vpn] = 0 if pfn is None else make_pte(pfn)
    return [pte_of[va >> PAGE_SHIFT] for va in vas]


class StltAccel(TranslationAccel):
    """The STLT design point: key-level fast path + STB + SPTW."""

    name = "stlt"
    key_level = True
    #: cache VAs only (the STLT-VA ablation)
    va_only = False

    def build_frontends(self) -> List[LookupFrontend]:
        engine = self.engine
        config = self.config
        ctx = engine.ctx
        fast_hash = get_hash(config.fast_hash)
        shared_ipb = IPB()
        engine.stus = [
            STU(core.mem, va_only=self.va_only, ipb=shared_ipb)
            for core in ctx.cores
        ]
        engine.osi = OSInterface(ctx.space, ctx.cores[0].mem, engine.stus)
        engine.osi.stlt_alloc(config.effective_stlt_rows,
                              ways=config.stlt_ways)
        return [STLTFrontend(ctx, engine.index, stu, fast_hash)
                for stu in engine.stus]

    def prefill(self, records: "List[Record]") -> None:
        stlt = self.engine.osi.stlt
        vas = [record.va for record in records]
        # STLT-VA keeps no PTEs, so it needs no page-table lookups
        ptes = None if self.va_only else _present_ptes(
            self.engine.ctx.space.page_table, vas)
        stlt.fill(self.fast_hashes(records), vas, ptes)
        stlt.reset_stats()

    def fast_occupancy(self) -> Optional[int]:
        stlt = self.engine.osi.stlt
        return None if stlt is None else stlt.occupancy

    def fast_table_bytes(self) -> Optional[int]:
        stlt = self.engine.osi.stlt
        return None if stlt is None else stlt.size_bytes

    def report(self) -> dict:
        engine = self.engine
        out = {"accel": self.name}
        if engine.osi.stlt is not None:
            stlt = engine.osi.stlt
            out["stlt_rows"] = stlt.num_rows
            out["stlt_occupancy"] = stlt.occupancy
            out["scrubs"] = engine.osi.scrubs
        out["stb_probes"] = sum(stu.stb.probes for stu in engine.stus)
        out["stb_hits"] = sum(stu.stb.hits for stu in engine.stus)
        return out

    @classmethod
    def hardware_cost(cls, machine: "MachineParams", rows: int,
                      ways: int) -> HardwareCostReport:
        # Table I: the on-chip buffers, not the in-memory table
        return hardware_cost()


class StltVaAccel(StltAccel):
    """STLT-VA: the STLT hardware caching VAs only."""

    name = "stlt_va"
    va_only = True


class StltSwAccel(TranslationAccel):
    """STLT-SW: the STLT kept in user memory, plain loads and stores."""

    name = "stlt_sw"
    key_level = True

    def build_frontends(self) -> List[LookupFrontend]:
        engine = self.engine
        config = self.config
        ctx = engine.ctx
        rows = config.effective_stlt_rows
        self.table = STLT(rows, ways=config.stlt_ways)
        table_va = ctx.space.alloc_region(rows * 16)
        fast_hash = get_hash(config.fast_hash)
        return [SoftwareSTLTFrontend(ctx, engine.index, self.table,
                                     table_va, fast_hash)
                for _ in ctx.cores]

    def prefill(self, records: "List[Record]") -> None:
        self.table.fill(self.fast_hashes(records),  # VAs only
                        [record.va for record in records])
        self.table.reset_stats()

    def fast_occupancy(self) -> int:
        return self.table.occupancy

    def fast_table_bytes(self) -> int:
        return self.table.size_bytes
