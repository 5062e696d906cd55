"""repro.accel — every translation design behind one interface.

Each design answers the same question — how does a GET find its
record's address? — under the same memory system, OS-churn paths and
stale-translation oracle.  ``RunConfig.frontend`` names one design;
:data:`DESIGNS` maps the name to its
:class:`~repro.accel.base.TranslationAccel` subclass, which builds the
per-core front-ends, prefills its own table, reports its table
occupancy, bytes and telemetry, and prices its hardware:

* ``baseline``  — the unmodified program (slow path only);
* ``slb``       — the SLB software cache (Section IV-A comparator);
* ``stlt``      — the paper's STLT/STB/SPTW fast path (golden-pinned);
* ``stlt_va``   — the Fig. 19 ablation caching VAs only;
* ``stlt_sw``   — the Fig. 19 ablation keeping the STLT in user memory;
* ``victima``   — TLB-reach extension in underutilized L2/L3 capacity;
* ``pcax``      — PC-indexed translation table over op-site pseudo-PCs;
* ``revelator`` — hash-based speculative translation with charged
  misspeculation.

``repro sweep accel`` runs the five-design head-to-head (baseline,
stlt and the three rivals).  DESIGN.md section 12 documents the
interface contract and how to add a design.
"""

from __future__ import annotations

from .base import SetAssocTable, TranslationAccel
from .pcax import PCAXAccel
from .revelator import RevelatorAccel
from .slb import SLBAccel
from .stlt import StltAccel, StltSwAccel, StltVaAccel
from .victima import VictimaAccel

#: design registry: RunConfig.frontend name -> TranslationAccel class
#: (order matches repro.sim.config.FRONTENDS)
DESIGNS = {
    cls.name: cls
    for cls in (TranslationAccel, SLBAccel, StltAccel, StltVaAccel,
                StltSwAccel, VictimaAccel, PCAXAccel, RevelatorAccel)
}

__all__ = [
    "DESIGNS",
    "PCAXAccel",
    "RevelatorAccel",
    "SLBAccel",
    "SetAssocTable",
    "StltAccel",
    "StltSwAccel",
    "StltVaAccel",
    "TranslationAccel",
    "VictimaAccel",
]
