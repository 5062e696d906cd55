"""The SLB software-cache comparator as a translation design.

One shared :class:`~repro.slb.slb.SLBCache` (cache table + log table in
user memory) behind one ``SLBFrontend`` per core; probes are timed
against the core that issues them (``Engine.bind_core`` re-points the
cache's memory system).  Pure software, so no extra hardware.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ..hashes.registry import get_hash
from ..sim.frontend import LookupFrontend, SLBFrontend
from ..slb.slb import SLBCache
from .base import TranslationAccel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..kvs.records import Record


class SLBAccel(TranslationAccel):
    """The SLB design point: a software search-lookaside buffer."""

    name = "slb"
    key_level = True

    def build_frontends(self) -> List[LookupFrontend]:
        engine = self.engine
        ctx = engine.ctx
        engine.slb = SLBCache(
            ctx.space, ctx.cores[0].mem,
            num_entries=self.config.effective_slb_entries,
            fast_hash=get_hash(self.config.fast_hash),
        )
        return [SLBFrontend(ctx, engine.index, engine.slb)
                for _ in ctx.cores]

    def prefill(self, records: "List[Record]") -> None:
        slb = self.engine.slb
        for h, record in zip(self.fast_hashes(records), records):
            slb.prefill(h, record.va)

    def fast_table_bytes(self) -> int:
        return self.engine.slb.size_bytes
