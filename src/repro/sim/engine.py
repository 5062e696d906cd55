"""The run engine: build a store, stream workloads, measure.

Methodology mirrors Section IV-A: the store is populated with
``num_keys`` records, the operation stream warms up caches, TLBs and the
fast-path tables (80% of operations by default, like the paper), and the
final window is measured.  Every GET's result is verified against the
functional store, so a timing bug that corrupts an index fails loudly
instead of skewing numbers.

The engine builds one *shared* store (index, record store, fast-path
tables, STLT/IPB) and ``num_cores`` per-core front-ends over it, each
core owning its private L1/L2, TLBs, STB, prefetchers, and STU.  The
actual operation interleaving lives in
:class:`~repro.sim.multicore.MultiCoreEngine`; a single-core run through
it is cycle-identical to the pre-split engine (a regression test pins
this against golden numbers).
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Optional

from ..chaos.oracle import StaleTranslationOracle
from ..chaos.report import build_chaos_report
from ..core.os_interface import OSInterface
from ..core.stu import STU
from ..errors import KVSError
from ..kvs import make_index
from ..kvs.base import SimContext
from ..kvs.records import Record
from ..kvs.redis_model import RedisModel
from ..mem.prefetch import (
    DistanceTLBPrefetcher,
    StreamPrefetcher,
    VLDPPrefetcher,
)
from ..slb.slb import SLBCache
from ..workloads.keys import key_bytes
from .config import RunConfig
from .frontend import LookupFrontend
from .results import RunResult


def _prefetcher_kwargs(names) -> Dict[str, object]:
    kwargs: Dict[str, object] = {}
    if "stream" in names:
        kwargs["stream_prefetcher"] = StreamPrefetcher()
    if "vldp" in names:
        kwargs["vldp_prefetcher"] = VLDPPrefetcher()
    if "tlb_distance" in names:
        kwargs["tlb_prefetcher"] = DistanceTLBPrefetcher()
    return kwargs


class Engine:
    """Builds one shared store plus per-core front-ends and runs it."""

    def __init__(self, config: RunConfig) -> None:
        self.config = config
        self.ctx = SimContext.create(
            machine=config.machine,
            slow_hash=config.slow_hash,
            num_cores=config.num_cores,
            mem_kwargs_fn=lambda core_id: _prefetcher_kwargs(
                config.prefetchers),
        )
        self.redis: Optional[RedisModel] = None
        if config.program == "redis":
            self.redis = RedisModel(self.ctx, expected_keys=config.num_keys)
            self.index = self.redis.index
        else:
            self.index = make_index(config.program, self.ctx,
                                    expected_keys=config.num_keys)

        self.records: List[Record] = self._populate()

        #: per-core STUs (stlt/stlt_va designs only; None otherwise)
        self.stus: List[Optional[STU]] = [None] * config.num_cores
        self.osi: Optional[OSInterface] = None
        self.slb: Optional[SLBCache] = None
        #: the run's translation design (repro.accel): one front-end
        #: per core over the design's shared fast table, if it has one
        from ..accel import DESIGNS  # avoid an import cycle
        self.design = DESIGNS[config.frontend](self)
        self.frontends: List[LookupFrontend] = self.design.build_frontends()
        #: compatibility aliases: core 0's view
        self.frontend = self.frontends[0]
        self.stu = self.stus[0]
        #: always-on stale-translation oracle: every GET is cross-checked
        #: against the authoritative record store (untimed — checked and
        #: unchecked runs are cycle-identical); a wrong or torn read
        #: raises CoherenceError instead of skewing numbers
        self.oracle = StaleTranslationOracle(self.ctx.records,
                                             self.ctx.space)
        if config.prefill:
            # stands in for the paper's 80 M-operation warm-up; the
            # timed warm-up still churns the table, so measured miss
            # rates reflect capacity and conflicts, not cold start
            self.design.prefill(self.records)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _populate(self) -> List[Record]:
        """Lay out and index every key; returns the records in key order.

        The layout is one bulk pass: a single ``alloc_many`` over each
        key's record, Redis value object and index node gives the VAs
        (and frames) the per-key build would, then every key is linked.
        """
        config = self.config
        ctx = self.ctx
        index = self.index
        keys = [key_bytes(key_id) for key_id in range(config.num_keys)]
        if index.hashes_keys:
            # one vectorised pass; every hash below is a memo hit
            ctx.slow_hash.prime(keys)
        node_bytes = index.build_node_bytes
        if node_bytes is None:
            # the index allocates as the keys dictate (B-tree splits)
            records = []
            for key in keys:
                record = ctx.records.create(key, config.value_size)
                index.build_insert(key, record)
                records.append(record)
            return records
        external = self.redis is not None
        sizes = ctx.records.allocation_sizes(len(keys[0]), config.value_size,
                                             external)
        if node_bytes:
            sizes.append(node_bytes)
        columns = ctx.alloc.alloc_many(sizes, len(keys))
        records = ctx.records.create_many(
            keys, config.value_size, columns[0],
            columns[1] if external else None)
        link = index.build_link
        for record, node_va in zip(records, columns[-1] if node_bytes
                                   else repeat(0)):
            link(record.key, record, node_va)
        return records

    # ------------------------------------------------------------------
    # core binding
    # ------------------------------------------------------------------

    def bind_core(self, core_id: int) -> None:
        """Route subsequent timed work to ``core_id``'s private levels."""
        self.ctx.bind_core(core_id)
        if self.slb is not None:
            # the SLB tables are shared data; probes are timed against
            # the core that issues them
            self.slb.mem = self.ctx.mem

    # ------------------------------------------------------------------
    # the run loop (delegated to the multi-core interleaver)
    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        """Run the configured number of cores; single-core configs get
        the per-core result (identical to the pre-split engine), multi-
        core configs the aggregate with per-core payloads attached.

        Open-loop configs (``arrival_process != "closed"``) run the
        same closed-loop measurement with the per-op capture hook armed
        — the simulated cycles are bit-identical — and then feed the
        captured per-core service times to the :mod:`repro.svc`
        queueing layer, attaching its latency/throughput outcome as
        ``result.service``.
        """
        from .multicore import MultiCoreEngine  # avoid an import cycle

        open_loop = self.config.arrival_process != "closed"
        mc = MultiCoreEngine(self, capture_op_cycles=open_loop)
        outcome = mc.run()
        result = outcome.per_core[0] if self.config.num_cores == 1 \
            else outcome.aggregate
        if open_loop:
            from ..svc.service import service_from_config
            service = service_from_config(
                self.config, outcome.op_cycles,
                closed_loop_throughput=result.throughput)
            result.service = service.to_dict()
        if mc.injector is not None:
            result.chaos = build_chaos_report(self, mc.injector)
        result.accel = self.design.report()
        return result

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def do_get(self, core_id: int, key_id: int) -> None:
        key = key_bytes(key_id)
        frontend = self.frontends[core_id]
        fast_hits_before = frontend.fast_hits
        if self.redis is not None:
            self.redis.begin_command()
            record = frontend.get(key)
            if record is None:
                raise KVSError(f"GET lost key id {key_id}")
            self.oracle.check_get(
                key, record,
                fast_hit=frontend.fast_hits > fast_hits_before)
            self.ctx.records.access_value(record)
            self.redis.end_command(record.value_size)
            self.redis.gets += 1
        else:
            record = frontend.get(key)
            if record is None:
                raise KVSError(f"GET lost key id {key_id}")
            self.oracle.check_get(
                key, record,
                fast_hit=frontend.fast_hits > fast_hits_before)
            self.ctx.records.access_value(record)

    def do_set(self, core_id: int, key_id: int, value_size: int) -> None:
        key = key_bytes(key_id)
        if self.redis is not None:
            self.redis.begin_command()
            record = self.redis.insert_new(key, value_size)
            self.redis.end_command(0)
        else:
            record = self.ctx.records.create(key, value_size)
            self.index.insert(key, record)
        self.records.append(record)
        self.frontends[core_id].on_insert(key, record)

    # backwards-compatible single-core spellings
    def _do_get(self, key_id: int) -> None:
        self.do_get(self.ctx.active_core, key_id)

    def _do_set(self, key_id: int, value_size: int) -> None:
        self.do_set(self.ctx.active_core, key_id, value_size)

    # ------------------------------------------------------------------
    # coherence broadcast (Section III-F at machine scope)
    # ------------------------------------------------------------------

    def notify_record_moved(self, record: Record, old_va: int) -> None:
        """Record-movement protocol over all cores.

        The fast-path tables (STLT, SLB, STLT-SW) are shared, so one
        refresh is globally visible; it is issued by the *active* core's
        front-end so the protocol's cycles are charged where the resize
        ran.  Every other core observes the update on its next probe —
        stale VAs fail semantic validation everywhere.
        """
        self.frontends[self.ctx.active_core].on_record_moved(record, old_va)


def run_experiment(config: RunConfig) -> RunResult:
    """Convenience wrapper: build an engine (or a fleet) and run it.

    Multi-node configs dispatch to the cluster layer, which runs one
    engine per node plus the request-routing overlay; single-node
    configs run the plain engine exactly as before (the golden tests
    pin this path bit-identical across the cluster work).
    """
    if config.cluster_enabled:
        from ..cluster.service import run_cluster  # avoid a cycle
        return run_cluster(config)
    return Engine(config).run()
