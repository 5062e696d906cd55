"""The ``TranslationAccel`` interface (DESIGN.md section 12).

A translation design is one *design point* the evaluation compares:
one answer to "how does a GET find its record's address?" under the
exact same memory system, OS-churn paths, and stale-translation oracle
as every other design.  ``RunConfig.frontend`` names one design; each
name maps to one subclass in :data:`repro.accel.DESIGNS`.  A design
plugs into the simulator at two seams:

* **front-ends** — :meth:`TranslationAccel.build_frontends` returns one
  :class:`~repro.sim.frontend.LookupFrontend` per core.  The key-level
  designs (SLB, STLT and its ablations) return their own front-ends
  over a shared fast table; the translation-level designs return plain
  baseline front-ends and do their work below the TLBs.
* **the L2-TLB-miss slot** — a design may attach one resolver per
  core via :meth:`repro.mem.hierarchy.MemorySystem.attach_accel`.  The
  resolver owns the probe/walk/fill protocol for that core and is
  called exactly where the reference system would start a page walk.

The resolver contract (duck-typed, see ``MemorySystem._translate``)::

    resolve(mem, vpn) -> (pfn | None, exposed_cycles, walked)
    invalidate(vpn)          # OS flush_tlb_* reaches the backend here
    kind_hint                # writable; the op-site pseudo-PC

``exposed_cycles`` join the access's critical path and are attributed
to "translation"; everything the design charges *itself* (probes,
validation, misspeculation penalties, fill traffic) goes through
``mem.tick(cycles, attr="accel")`` so ``sim/breakdown.py`` reports a
per-design "accel" category.  A resolver must never return a pfn the
page table would not — speculative designs fetch in parallel and
*validate*; the always-on CoherenceError oracle is the backstop.

Scrubbing (the STLT's IPB-overflow slow path) is design-private: the
STLT designs inherit it through :class:`repro.core.os_interface`, the
rivals invalidate eagerly per page, and Revelator deliberately keeps
stale predictions (staleness is a charged misspeculation, never a
correctness event).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..core.hwcost import HardwareCostReport
from ..hashes.registry import get_hash
from ..sim.frontend import BaselineFrontend, LookupFrontend

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..kvs.records import Record
    from ..params import MachineParams
    from ..sim.engine import Engine


class TranslationAccel:
    """One translation design; the base class is the unmodified program
    (baseline front-ends, no fast table, no extra hardware)."""

    #: the ``RunConfig.frontend`` name of the design
    name: str = "baseline"
    #: whether GETs can hit a key-level fast path, i.e. whether a run
    #: reports ``fast_miss_rate`` (the translation-level rivals do not)
    key_level: bool = False

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.config = engine.config

    # -- construction ---------------------------------------------------

    def build_frontends(self) -> List[LookupFrontend]:
        """Build per-core front-ends and attach any per-core resolvers.

        A design may also populate ``engine.stus`` / ``engine.osi`` /
        ``engine.slb`` (the STLT and SLB designs do, so chaos
        telemetry, STLTresize injection and core binding see them).
        """
        engine = self.engine
        return [BaselineFrontend(engine.ctx, engine.index)
                for _ in engine.ctx.cores]

    def prefill(self, records: "List[Record]") -> None:
        """Untimed steady-state install of every live record into the
        design's own fast table (none for the base design)."""

    def fast_hashes(self, records: "List[Record]") -> List[int]:
        """The run's fast hash of every record's key, hashed in one
        batch; the prefill of a design with a fast table starts here."""
        return get_hash(self.config.fast_hash).hashes(
            [record.key for record in records])

    # -- introspection and reporting ------------------------------------

    def fast_occupancy(self) -> Optional[int]:
        """Live rows of the fast table, or None without one."""
        return None

    def fast_table_bytes(self) -> Optional[int]:
        """Bytes of the fast table(s), or None without one."""
        return None

    def report(self) -> Optional[dict]:
        """Telemetry for ``RunResult.accel`` (plain JSON data), or None
        for a design that keeps no counters of its own."""
        return None

    @classmethod
    def hardware_cost(cls, machine: "MachineParams", rows: int,
                      ways: int) -> HardwareCostReport:
        """Table-1-style on-chip bit budget of this design on
        ``machine`` with ``rows`` x ``ways`` accel tables."""
        return HardwareCostReport(components={})


class SetAssocTable:
    """A small LRU set-associative (vpn -> pfn) table.

    The shared building block of the victima and pcax resolvers; the
    same move-to-end OrderedDict idiom as :class:`repro.mem.tlb.TLB`,
    kept separate because these tables are backend state, not part of
    the TLB hierarchy (they must not count TLB statistics).
    """

    def __init__(self, num_sets: int, ways: int) -> None:
        from collections import OrderedDict
        self.num_sets = num_sets
        self.ways = ways
        self._sets = [OrderedDict() for _ in range(num_sets)]
        self.evictions = 0

    def probe(self, vpn: int) -> Optional[int]:
        s = self._sets[vpn % self.num_sets]
        pfn = s.get(vpn)
        if pfn is not None:
            s.move_to_end(vpn)
        return pfn

    def insert(self, vpn: int, pfn: int) -> bool:
        """Insert; returns True when a victim was evicted."""
        s = self._sets[vpn % self.num_sets]
        if vpn in s:
            s[vpn] = pfn
            s.move_to_end(vpn)
            return False
        evicted = False
        if len(s) >= self.ways:
            s.popitem(last=False)
            self.evictions += 1
            evicted = True
        s[vpn] = pfn
        return evicted

    def invalidate(self, vpn: int) -> None:
        self._sets[vpn % self.num_sets].pop(vpn, None)

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)


def charged_walk(mem, vpn: int):
    """One hardware page walk with reference-identical accounting.

    Returns ``(pfn | None, walk_cycles)``; the caller decides how much
    of the latency is *exposed* (Revelator hides it behind the
    speculative data fetch) — the walker's PTE loads and the walk-count
    statistics happen either way, exactly as in the reference path.
    """
    pfn, walk_cycles = mem.walker.walk(vpn)
    mem.stats.page_walks += 1
    mem.stats.walk_cycles += walk_cycles
    return pfn, walk_cycles
