"""The paper's STLT/STB/SPTW path as the first accel backend.

``accel=stlt`` is the existing ``frontend="stlt"`` machinery refactored
behind the :class:`~repro.accel.base.TranslationAccel` interface: the
backend constructs the *identical* object graph, in the identical
order, as the engine's legacy stlt branch — one shared IPB, one STU
per core (STB + insertion buffer + SPTW), one kernel
:class:`~repro.core.os_interface.OSInterface` spanning all STUs, one
``STLTalloc`` — and returns real ``STLTFrontend`` objects.  The golden
regression pins it bit-identical to the pre-refactor frontend.

It also re-exports ``engine.stus`` / ``engine.osi``, so prefill, the
chaos injector's ``STLTresize`` events and the IPB/scrub telemetry all
work on an accelerated run unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ..core.hwcost import HardwareCostReport, hardware_cost
from ..core.ipb import IPB
from ..core.os_interface import OSInterface
from ..core.stu import STU
from ..hashes.registry import get_hash
from .base import TranslationAccel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.frontend import LookupFrontend


class StltAccel(TranslationAccel):
    """The STLT design point: key-level fast path + STB + SPTW."""

    name = "stlt"

    def build_frontends(self) -> "List[LookupFrontend]":
        from ..sim.frontend import make_frontend  # avoid an import cycle
        engine = self.engine
        config = self.config
        ctx = engine.ctx
        fast_hash = get_hash(config.fast_hash)
        shared_ipb = IPB()
        engine.stus = [
            STU(core.mem, va_only=False, ipb=shared_ipb)
            for core in ctx.cores
        ]
        engine.osi = OSInterface(ctx.space, ctx.cores[0].mem, engine.stus)
        engine.osi.stlt_alloc(config.effective_stlt_rows,
                              ways=config.stlt_ways)
        return [
            make_frontend("stlt", ctx, engine.index,
                          stu=stu, fast_hash=fast_hash)
            for stu in engine.stus
        ]

    def report(self) -> dict:
        engine = self.engine
        out = {"accel": self.name}
        if engine.osi is not None and engine.osi.stlt is not None:
            stlt = engine.osi.stlt
            out["stlt_rows"] = stlt.num_rows
            out["stlt_occupancy"] = stlt.occupancy
            out["scrubs"] = engine.osi.scrubs
        stus = [stu for stu in engine.stus if stu is not None]
        out["stb_probes"] = sum(stu.stb.probes for stu in stus)
        out["stb_hits"] = sum(stu.stb.hits for stu in stus)
        return out

    def hardware_cost(self) -> HardwareCostReport:
        return hardware_cost()
