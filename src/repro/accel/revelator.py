"""Revelator-style hash-based speculative translation (PAPERS.md).

Revelator is *software-guided speculation*: the OS maintains a hash
mapping from virtual to physical pages, and on a TLB miss the core
**speculatively issues the data fetch with the hashed guess while the
page walk runs in parallel**.  When the walk confirms the guess, the
walk's latency is hidden and only a validation check is exposed; when
it does not, the speculative fetch is squashed and a misspeculation
penalty is paid on top of the fully exposed walk.

Model:

* the guess table is the OS's software hash map (plain memory, no
  dedicated SRAM capacity — see
  :func:`repro.core.hwcost.revelator_cost`), trained at walk
  completion;
* it is **deliberately not invalidated** on OS page churn: staleness
  is the design's whole hazard, and a stale guess is a *charged
  misspeculation* (``spec_mispredict_cycles``), never a wrong answer —
  the returned translation always comes from the real walk, so the
  CoherenceError oracle stays clean by construction;
* a correct speculation charges ``spec_validate_cycles`` instead of
  the walk latency (the walk still runs — its PTE loads occupy the
  caches and DRAM exactly as in the reference path — it is just off
  the critical path).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from ..core.hwcost import HardwareCostReport, revelator_cost
from ..sim.frontend import LookupFrontend
from .base import TranslationAccel, charged_walk

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..params import MachineParams


class _RevelatorResolver:
    """Per-core resolver speculating across the page walk."""

    def __init__(self, validate_cycles: int,
                 mispredict_cycles: int) -> None:
        self.validate_cycles = validate_cycles
        self.mispredict_cycles = mispredict_cycles
        self.kind_hint = None  # unused; PC-indexed designs read this
        #: the OS's software hash map of guessed translations
        self._guesses: Dict[int, int] = {}
        self.spec_hits = 0
        self.spec_misses = 0
        self.spec_cold = 0

    def resolve(self, mem, vpn: int):
        guess = self._guesses.get(vpn)
        # the walk always runs (in parallel with the speculative data
        # fetch); its PTE loads hit the real cache hierarchy either way
        pfn, walk_cycles = charged_walk(mem, vpn)
        if pfn is None:
            return None, walk_cycles, True
        if guess is None:
            # nothing to speculate on: the walk is fully exposed and
            # primes the hash map for the next miss to this page
            self.spec_cold += 1
            self._guesses[vpn] = pfn
            return pfn, walk_cycles, True
        if guess == pfn:
            # correct speculation: data was fetched with the guessed
            # translation while the walk ran; only validation is exposed
            self.spec_hits += 1
            mem.tick(self.validate_cycles, attr="accel")
            return pfn, 0, True
        # stale guess (the OS moved the page): squash the speculative
        # fetch, pay the penalty, expose the walk, and re-train
        self.spec_misses += 1
        mem.tick(self.mispredict_cycles, attr="accel")
        self._guesses[vpn] = pfn
        return pfn, walk_cycles, True

    def invalidate(self, vpn: int) -> None:
        # deliberately stale: churn turns into charged misspeculations,
        # which is the design point this backend exists to measure
        pass


class RevelatorAccel(TranslationAccel):
    """The Revelator design point: speculate, fetch, validate."""

    name = "revelator"

    def __init__(self, engine) -> None:
        super().__init__(engine)
        self.resolvers: List[_RevelatorResolver] = []

    def build_frontends(self) -> List[LookupFrontend]:
        config = self.config
        for core in self.engine.ctx.cores:
            resolver = _RevelatorResolver(
                validate_cycles=config.spec_validate_cycles,
                mispredict_cycles=config.spec_mispredict_cycles)
            core.mem.attach_accel(resolver)
            self.resolvers.append(resolver)
        return super().build_frontends()

    def report(self) -> dict:
        return {
            "accel": self.name,
            "spec_hits": sum(r.spec_hits for r in self.resolvers),
            "spec_misses": sum(r.spec_misses for r in self.resolvers),
            "spec_cold": sum(r.spec_cold for r in self.resolvers),
            "guessed_pages": sum(len(r._guesses) for r in self.resolvers),
        }

    @classmethod
    def hardware_cost(cls, machine: "MachineParams", rows: int,
                      ways: int) -> HardwareCostReport:
        return revelator_cost()
