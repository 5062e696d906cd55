"""The cluster overlay: one request lifecycle over a simulated fleet.

Every node first runs the *full* single-node simulator (an
:class:`~repro.sim.engine.Engine` under the multi-core interleave,
capturing per-op service cycles; node 0 keeps the run seed, node *i*
derives ``node{i}``).  An open-loop arrival process then stamps
requests at ``offered_load x`` the fleet's aggregate capacity, each a
read or a write (:data:`WRITE_FRACTION`), and every request runs these
stages (DESIGN.md section 10), one ``_Overlay`` method each:

1. route (``_route``): route cache, bootstrap node or capability
   pre-route, then the contact hop;
2. MOVED redirect (``_moved``);
3. ASK forward (``_ask``);
4. the routing oracle (``_check_route``): the serving node must hold
   authority over the slot, else :class:`~repro.errors.ClusterError`;
5. serve (``_serve``): a full node, an accelerator hit, or a capacity
   miss that falls back to the backer and installs the key;
6. straggler hedge (``_hedge``);
7. ack (``_ack``): write ack and invalidation, the lost-read
   judgement, route learning, and the latency into the serving node's
   histogram (merged fleet-wide at the end).

``request`` retries an attempt that died against an unreachable node
under the svc :class:`~repro.svc.service.Mitigation` budget, after the
migration and failover schedulers have advanced.  The acked-write
(failover) oracle's data lives in the
:class:`~repro.cluster.ledger.WriteLedger`: an acked write with a live
replica at ack time that the read set lost raises
:class:`~repro.errors.FailoverError`; unavoidable losses are reported
as ``acked_write_losses`` with the loss window, never silently.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, fields, replace
from typing import Dict, List, Optional, Sequence

from ..errors import ClusterError, FailoverError, HeteroError, ReproError
from ..hetero.accel_node import (
    LOOKUP_BASE_CYCLES,
    MODE_SWITCH_DRAIN_CYCLES,
    AccelNodeModel,
    delete_cycles,
    install_cycles,
    lookup_interval_cycles,
    lookup_latency_cycles,
)
from ..hetero.fleet import NODE_CLASS_ACCEL, fleet_cost, format_node_types
from ..params import derive_seed
from ..svc.arrival import make_arrivals
from ..svc.histogram import DEFAULT_PRECISION, LatencyHistogram
from ..svc.service import CoreQueues, Mitigation
from ..workloads.distributions import make_chooser
from ..workloads.keys import key_bytes
from .client import ClusterClient
from .failover import FailoverScheduler, parse_node_fault
from .intervals import IntervalSchedule
from .ledger import WriteLedger
from .migration import MigrationScheduler
from .network import REQUEST_HEADER_BYTES, ClusterNetwork
from .topology import ClusterTopology, slot_for_key

__all__ = ["ClusterResult", "REDIRECT_CYCLES", "WRITE_FRACTION",
           "DEFAULT_CLUSTER_TIMEOUT", "run_cluster", "simulate_cluster"]

#: cycles a wrong-node consults its slot table before answering a
#: MOVED/ASK redirect (a hash-map probe plus a small reply, far below
#: one real service time — redirects are cheap, extra *hops* are not)
REDIRECT_CYCLES = 40

#: bytes of a MOVED/ASK reply (error line with slot and address)
REDIRECT_BYTES = 48

#: fraction of cluster requests that are writes (YCSB-B's read-heavy
#: mix).  Writes ride the same routing but only the primary may ack
#: them, and each ack replicates to the slot's current replica set —
#: the state the failover oracle audits
WRITE_FRACTION = 0.1

#: default per-attempt timeout under a fault plan, as a multiple of
#: (mean service time + RTT): generous enough that healthy queueing
#: almost never trips it, small enough that a handful of retries spans
#: the failure-detection window
DEFAULT_CLUSTER_TIMEOUT = 8.0

#: wire bytes of a canonical scaled key (workloads.keys.key_bytes is
#: always 24 bytes: b"user" + 20 decimal digits) — comfortably under
#: the accelerator's 255-byte reserve limit
CANON_KEY_BYTES = 24

#: modeled wire size of a key marked oversized by
#: ``hetero_big_key_fraction`` — above the 255-byte limit, so such
#: GETs can never be described to an accelerator's engine
BIG_KEY_BYTES = 512

#: the multiplicative hash marking oversized keys: a fixed 32-bit
#: mixer over the key id, deterministic and deliberately decorrelated
#: from the zipf popularity ranking (low ids are the hot keys)
_BIG_KEY_MIX = 0x9E3779B1


@dataclass
class ClusterResult:
    """Outcome of one cluster run (JSON-exact round trip)."""

    #: fleet shape
    nodes: int
    replicas: int
    clients: int
    client_batch: int
    route_cache: bool
    replica_reads: bool
    #: arrival process ("poisson" | "mmpp") of the cluster overlay
    process: str
    offered_load: float
    #: offered arrival rate, ops/cycle (load x aggregate capacity)
    arrival_rate: float
    #: sum of the nodes' measured closed-loop capacities, ops/cycle
    total_capacity: float
    #: cluster requests simulated
    requests: int
    #: cycles from the arrival epoch to the last response delivery
    makespan: float
    #: requests / makespan, ops/cycle — the scaling metric
    achieved_throughput: float
    mean_latency: float
    #: fleet-wide latency percentiles, cycles: p50 / p95 / p99 / p999
    #: (merged from the per-node histograms)
    latency: Dict[str, float]
    #: the merged log-bucketed latency distribution
    histogram: dict
    #: per-node statistics: node, closed_loop_throughput, requests,
    #: busy_fraction, mean_latency
    per_node: List[dict]
    #: Jain fairness over per-node served-request counts
    fairness: float
    #: route-cache outcomes summed over the client population
    route_hits: int
    route_stale_hits: int
    route_misses: int
    #: redirect hops
    moved_redirects: int
    ask_redirects: int
    #: migration telemetry (:meth:`MigrationScheduler.report`)
    migration: dict
    #: network telemetry (:meth:`ClusterNetwork.report`)
    network: dict
    #: requests served by a node with no authority over the slot —
    #: must be zero (the run raises otherwise); stored so a violation
    #: found post-hoc in an archived record stays visible
    oracle_violations: int = 0
    #: write requests attempted / acknowledged (acked < attempted when
    #: writes fail against a dead primary)
    writes: int = 0
    acked_writes: int = 0
    #: acked writes whose loss was unavoidable: no replica existed at
    #: ack time, or every holder crashed before re-replication.  Loud
    #: telemetry, never an exception
    acked_write_losses: int = 0
    #: acked writes stranded on a *live* node outside the slot's
    #: authoritative read set — the run raises FailoverError on any
    failover_violations: int = 0
    #: requests that exhausted every retry attempt (their give-up
    #: latency still counts in the merged histogram)
    failed_requests: int = 0
    #: route-cache rows fixed by the eager-repair broadcast
    eager_repairs: int = 0
    #: client-resilience telemetry (Mitigation knobs + timeout/hedge
    #: counters); None when neither timeouts nor hedging are armed
    resilience: Optional[dict] = None
    #: failover telemetry (:meth:`FailoverScheduler.report` + repair
    #: policy, lost reads, loss window); None without a fault plan
    failover: Optional[dict] = None
    #: heterogeneous-fleet telemetry (node classes, fleet cost,
    #: accelerator hit fraction, fallback counts by class, capability
    #: oracle verdict, cost-normalized throughput, per-accelerator
    #: pipeline stats); None on a homogeneous fleet — all-full runs
    #: carry the exact payload the plain cluster path produces
    hetero: Optional[dict] = None

    @property
    def p50(self) -> float:
        return self.latency["p50"]

    @property
    def p99(self) -> float:
        return self.latency["p99"]

    @property
    def p999(self) -> float:
        return self.latency["p999"]

    @property
    def route_lookups(self) -> int:
        return self.route_hits + self.route_stale_hits + self.route_misses

    @property
    def route_hit_rate(self) -> float:
        total = self.route_lookups
        return self.route_hits / total if total else 0.0

    def latency_histogram(self) -> LatencyHistogram:
        """Re-hydrate the merged distribution."""
        return LatencyHistogram.from_dict(self.histogram)

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        """All fields as JSON-native data (exact round trip)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterResult":
        """Inverse of :meth:`to_dict`; rejects unknown keys loudly."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ReproError(
                f"unknown ClusterResult field(s): {sorted(unknown)!r}")
        return cls(**data)


def _jain(values: Sequence[float]) -> float:
    """Jain's fairness index (1.0 = perfectly even)."""
    rates = [v for v in values if v > 0]
    if not rates:
        return 0.0
    total = sum(rates)
    return (total * total) / (len(rates) * sum(r * r for r in rates))


class _Server:
    """What every node reports: requests served, busy cycles and the
    latency histogram of the requests it completed."""

    __slots__ = ("name", "node_id", "served", "busy", "histogram",
                 "latency_sum")

    def __init__(self, node_id: int, precision: int) -> None:
        self.name = f"node{node_id}"
        self.node_id = node_id
        self.served = 0
        self.busy = 0.0
        self.histogram = LatencyHistogram(precision=precision)
        self.latency_sum = 0.0


class _NodeServer(_Server):
    """FIFO core queues of one node, charging captured service times."""

    __slots__ = ("cores",)

    def __init__(self, node_id: int, op_cycles: Sequence[Sequence[int]],
                 precision: int) -> None:
        if not op_cycles or any(not seq for seq in op_cycles):
            raise ClusterError(
                f"node {node_id} produced an empty service sequence")
        super().__init__(node_id, precision)
        self.cores = CoreQueues([list(seq) for seq in op_cycles])

    def serve(self, at: float) -> float:
        """Charge one request, starting no earlier than ``at``; returns
        the completion time.  Cores are picked round-robin (the node's
        own dispatch policy already played out inside its engine run;
        the cluster layer only needs a stable, deterministic spread)."""
        _, completion, service = self.cores.charge(
            self.served % len(self.cores.sequences), at)
        self.served += 1
        self.busy += service
        return completion


class _AccelServer(_Server):
    """The lookup pipeline of one accelerator node.

    Serving is pipelined: a lookup's *latency* spans the whole
    pipeline (hash walk + probe + value streaming) but the next lookup
    may issue after only the initiation interval.  Pipeline occupancy
    is an interval schedule, not a single high-water clock, for the
    same reason :class:`~repro.cluster.network.ClusterNetwork` gap-
    schedules its links: an install fires when the backer's value
    *arrives* — often long after queueing — and a single ``free_at``
    would make every later lookup wait behind that far-future write,
    an artifact of reservation order, not of the modelled pipeline.

    Every management instruction — install after a fallback, write-
    invalidation on an acked SET — needs write mode, so each charges
    one pipeline drain
    (:data:`~repro.hetero.accel_node.MODE_SWITCH_DRAIN_CYCLES`) on top
    of its instruction cycles; mutation time is charged on this same
    timeline, never hidden.
    """

    __slots__ = ("model", "value_bytes", "pipeline", "lookups", "hits",
                 "misses", "installs", "invalidations", "mode_switches",
                 "mgmt_cycles")

    def __init__(self, node_id: int, capacity_keys: int,
                 value_bytes: int, precision: int) -> None:
        super().__init__(node_id, precision)
        self.model = AccelNodeModel(capacity_keys)
        self.value_bytes = value_bytes
        self.pipeline = IntervalSchedule()
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.installs = 0
        self.invalidations = 0
        self.mode_switches = 0
        self.mgmt_cycles = 0.0

    def _claim(self, at: float, duration: float) -> float:
        self.busy += duration
        return self.pipeline.claim(at, duration)

    def serve_lookup(self, at: float, key_len: int) -> float:
        """Serve one *resident* lookup; returns the completion time."""
        latency = lookup_latency_cycles(key_len, self.value_bytes)
        interval = lookup_interval_cycles(key_len, self.value_bytes)
        start = self._claim(at, float(interval))
        self.served += 1
        self.lookups += 1
        self.hits += 1
        return start + latency

    def miss_reply(self, at: float, key_len: int) -> float:
        """A capacity miss: the pipeline still hashes the key and
        probes both candidate slots before answering "not here"."""
        start = self._claim(at, float(key_len))
        self.lookups += 1
        self.misses += 1
        return start + key_len + LOOKUP_BASE_CYCLES

    def install(self, at: float, key: bytes) -> None:
        """Charge the management sequence installing ``key`` (reserve
        + associates + write value, plus a delete when a candidate
        slot must be evicted), in the pipeline's first fitting gap."""
        evicted = self.model.install(key)
        cycles = install_cycles(len(key), self.value_bytes,
                                len(evicted) if evicted else 0) \
            + MODE_SWITCH_DRAIN_CYCLES
        self._claim(at, float(cycles))
        self.mgmt_cycles += cycles
        self.mode_switches += 1
        self.installs += 1

    def invalidate(self, at: float, key: bytes) -> None:
        """Write-invalidation: an acked SET deletes the resident copy
        so the accelerator can never serve a stale value."""
        if not self.model.resident(key):
            return
        cycles = delete_cycles(len(key)) + MODE_SWITCH_DRAIN_CYCLES
        self.model.delete(key)
        self._claim(at, float(cycles))
        self.mgmt_cycles += cycles
        self.mode_switches += 1
        self.invalidations += 1

    def report(self) -> dict:
        return {"node": self.node_id, "lookups": self.lookups,
                "hits": self.hits, "misses": self.misses,
                "installs": self.installs,
                "invalidations": self.invalidations,
                "mode_switches": self.mode_switches,
                "mgmt_cycles": self.mgmt_cycles, **self.model.report()}


class _Request:
    """One request as the lifecycle stages see it: what it asks for,
    and where its current attempt stands — the node it is at and the
    time its latest message arrives (``t``).  ``backer`` is the slot's
    full-class backer (the write authority and an accelerator's
    fallback), ``accel`` the slot's primary if it is an accelerator."""

    __slots__ = ("arrival", "key_id", "slot", "client", "is_write",
                 "oversized", "backer", "accel", "req_bytes",
                 "resp_bytes", "start", "node", "t", "head", "via_ask",
                 "hedged")

    def __init__(self, arrival: float, key_id: int, slot: int,
                 client: ClusterClient, is_write: bool, oversized: bool,
                 backer: int, accel: Optional[int],
                 value_bytes: int) -> None:
        self.arrival = self.start = arrival
        self.key_id = key_id
        self.slot = slot
        self.client = client
        self.is_write = is_write
        self.oversized = oversized
        self.backer = backer
        self.accel = accel
        # a write carries the value up; a read carries it back
        self.req_bytes = value_bytes if is_write else REQUEST_HEADER_BYTES
        self.resp_bytes = REQUEST_HEADER_BYTES if is_write else value_bytes


def _oversized(key_id: int, fraction: float) -> bool:
    """Whether ``key_id`` is modeled oversized on the wire (above the
    accelerator's 255-byte key limit).  A fixed multiplicative hash
    marks the configured fraction deterministically per key id — part
    of the workload definition, independent of the run seed and
    decorrelated from zipf popularity."""
    return ((key_id * _BIG_KEY_MIX) & 0xFFFFFFFF) < fraction * 4294967296.0


def _mitigation(config, node_op_cycles: Sequence[Sequence[Sequence[int]]],
                faults: bool) -> Mitigation:
    """Per-attempt client resilience, the svc Mitigation vocabulary one
    level up.  Budgets are multiples of one healthy exchange (mean
    service time + RTT); under a fault plan timeouts default on so a
    crashed primary costs bounded waits, not a hung run."""
    all_cycles = [c for node_seq in node_op_cycles
                  for core_seq in node_seq for c in core_seq]
    base_cycles = max(
        sum(all_cycles) / len(all_cycles) + config.net_rtt_cycles, 1.0)
    timeout_mult = config.cluster_timeout
    if timeout_mult is None and faults:
        timeout_mult = DEFAULT_CLUSTER_TIMEOUT
    return Mitigation(
        timeout_cycles=(timeout_mult * base_cycles
                        if timeout_mult is not None else None),
        retries=config.cluster_retries,
        backoff=config.svc_backoff,
        hedge_cycles=(config.cluster_hedge * base_cycles
                      if config.cluster_hedge is not None else None),
    )


class _Overlay:
    """One overlay run: the fleet, its seeded request stream, and the
    request lifecycle (module docstring) as one method per stage."""

    def __init__(self, config, node_capacities: Sequence[float],
                 node_op_cycles: Sequence[Sequence[Sequence[int]]],
                 precision: int) -> None:
        nodes = config.nodes
        if len(node_capacities) != nodes or len(node_op_cycles) != nodes:
            raise ClusterError(
                f"got {len(node_capacities)} capacities / "
                f"{len(node_op_cycles)} cycle captures for {nodes} node(s)")
        self.total_capacity = float(sum(node_capacities))
        if self.total_capacity <= 0.0:
            raise ClusterError("aggregate capacity must be positive")
        self.config = config
        self.node_capacities = node_capacities
        self.precision = precision

        # -- the fleet ------------------------------------------------
        self.topology = topology = ClusterTopology(
            nodes, config.replicas, node_classes=config.node_classes,
            accel_keys=config.effective_accel_keys)
        self.network = ClusterNetwork(config.net_rtt_cycles)
        self.servers: List[_Server] = [
            _AccelServer(i, config.effective_accel_keys, config.value_size,
                         precision) if topology.is_accel(i)
            else _NodeServer(i, node_op_cycles[i], precision)
            for i in range(nodes)]
        self.clients = [
            ClusterClient(i, nodes, route_cache=config.route_cache,
                          batch=config.client_batch,
                          replica_reads=config.replica_reads,
                          seed=derive_seed(config.seed, f"client{i}"))
            for i in range(config.cluster_clients)]

        # -- the seeded request stream --------------------------------
        self.process = config.arrival_process \
            if config.arrival_process != "closed" else "poisson"
        self.count = count = config.effective_cluster_requests
        self.rate = config.offered_load * self.total_capacity
        self.arrivals = make_arrivals(
            self.process, self.rate, count,
            seed=derive_seed(config.seed, "cluster_arrival"))
        chooser = make_chooser(config.distribution, config.num_keys,
                               seed=derive_seed(config.seed,
                                                "cluster_keystream"))
        self.key_ids = [chooser.choose() for _ in range(count)]
        # the read/write mix rides its own stream so enabling faults or
        # changing any payload policy never shifts which requests write
        rw_rng = random.Random(derive_seed(config.seed, "cluster_rw"))
        self.write_flags = [rw_rng.random() < WRITE_FRACTION
                            for _ in range(count)]
        self._slot_of: Dict[int, int] = {}
        self.value_bytes = REQUEST_HEADER_BYTES + config.value_size

        # -- churn, faults, resilience and the write ledger -----------
        self.migration = MigrationScheduler(
            topology, config.migrate_rate, config.seed,
            slot_source=self._random_slot)
        plan = tuple(parse_node_fault(s) for s in config.node_fault_plan)
        self.failover = failover = FailoverScheduler(
            topology, self.network, plan, config.seed, count,
            detect_cycles=config.failover_detect_cycles) if plan else None
        self.mitigation = _mitigation(config, node_op_cycles, bool(plan))
        self.timeout_cycles = self.mitigation.timeout_cycles
        self.hedge_cycles = self.mitigation.hedge_cycles
        self.attempts = self.mitigation.attempts
        self.ledger = ledger = WriteLedger(topology, failover)
        self.eager = config.repair_policy == "eager"
        topology.on_owner_change = self._owner_changed
        if failover is not None:
            failover.on_crash = self._node_crashed
            failover.on_promotion = ledger.promoted
            failover.on_membership_change = ledger.membership_changed

        # -- telemetry ------------------------------------------------
        self.acked_writes = self.eager_repairs = 0
        self.moved_redirects = self.post_promotion_moved = 0
        self.oracle_violations = 0
        self.hedges = self.hedge_wins = 0
        self.fallback_set = self.fallback_oversized = 0
        self.capability_checks = self.capability_violations = 0
        self.last_delivery = self.total_latency = 0.0
        self.failed_hist = LatencyHistogram(precision=precision)

    # -- keyspace and fleet events -------------------------------------

    def _slot_for(self, key_id: int) -> int:
        slot = self._slot_of.get(key_id)
        if slot is None:
            slot = slot_for_key(key_bytes(key_id), self.config.fast_hash)
            self._slot_of[key_id] = slot
        return slot

    def _random_slot(self, rng: random.Random) -> int:
        # migrations move the slot of a random live key, so scaled-down
        # runs (a few hundred keys over 16384 slots) still exercise ASK
        # windows and stale routes on slots that carry traffic
        return self._slot_for(rng.randrange(self.config.num_keys))

    def _owner_changed(self, slot: int, old: int, new: int) -> None:
        self.ledger.owner_changed(slot, old, new)
        if self.eager:
            # the eager-repair broadcast: the shootdown-style
            # alternative to lazy MOVEDs, paid in repair traffic
            for client in self.clients:
                if client.push_route(slot, new):
                    self.eager_repairs += 1

    def _node_crashed(self, node: int) -> None:
        self.ledger.node_crashed(node)
        # a crashed accelerator loses its on-chip memory: it restarts
        # cold and re-fills through capacity fallbacks
        server = self.servers[node]
        if isinstance(server, _AccelServer):
            server.model.reset()

    # -- the request lifecycle -----------------------------------------

    def request(self, index: int, arrival: float, key_id: int) -> None:
        """Run request ``index`` through the lifecycle, retrying an
        attempt that died against an unreachable node under the
        Mitigation's timeout and backoff."""
        self.ledger.index = index
        if self.failover is not None:
            self.failover.before_request(index, arrival)
        self.migration.before_request(index)
        topology = self.topology
        slot = self._slot_for(key_id)
        is_write = self.write_flags[index]
        oversized = _oversized(key_id, self.config.hetero_big_key_fraction)
        owner = topology.owner(slot)
        accel = owner if topology.is_accel(owner) else None
        if accel is not None:
            # demand-side fallback accounting: requests whose slot an
            # accelerator owns but which only its backer can serve
            if is_write:
                self.fallback_set += 1
            elif oversized:
                self.fallback_oversized += 1
        req = _Request(arrival, key_id, slot,
                       self.clients[index % len(self.clients)], is_write,
                       oversized, topology.backer_of(slot), accel,
                       self.value_bytes)
        for attempt in range(self.attempts):
            if self._attempt(req, use_cache=attempt == 0):
                self._ack(req)
                return
            # the client waits out its budget, drops the dead row and
            # retries through a bootstrap node with exponential backoff
            req.client.on_timeout(slot)
            if self.timeout_cycles is None:
                break  # unreachable without timeouts: fail fast
            req.start += self.timeout_cycles \
                * (self.mitigation.backoff ** attempt)
        self._fail(req)

    def _attempt(self, req: _Request, use_cache: bool) -> bool:
        """Stages 1-6 from ``req.start``; False if the attempt died."""
        req.via_ask = req.hedged = False
        if not (self._route(req, use_cache) and self._moved(req)):
            # the contacted node (or the one MOVED pointed at) is dark
            return self._hedge(req, math.inf)
        if not self._ask(req):
            return False
        self._check_route(req)
        if not self._serve(req):
            return False
        if self.hedge_cycles is not None \
                and req.t - req.start > self.hedge_cycles:
            # the straggler hedge: first completion wins
            self._hedge(req, req.t)
        return True

    def _route(self, req: _Request, use_cache: bool) -> bool:
        """Stage 1: pick the node to contact and send the request."""
        client = req.client
        if use_cache:
            target, _kind = client.target_for(req.slot, self.topology,
                                              is_read=not req.is_write)
        else:
            # a retry after a timeout: the stale row is gone, ask any
            # node and let MOVED point at the promoted owner
            target = client.bootstrap_node()
        # capability pre-route: writes and oversized-key GETs never
        # touch an accelerator — the client knows every node's
        # descriptor, so this is local, not an extra hop
        target = client.capability_route(req.slot, target, self.topology,
                                         req.is_write, req.oversized)
        req.node = target
        req.head = client.begin_request(target)
        req.t = self.network.one_way(client.name, self.servers[target].name,
                                     req.req_bytes, req.start,
                                     propagate=req.head)
        return not math.isinf(req.t)

    def _moved(self, req: _Request) -> bool:
        """Stage 2, MOVED: a contacted node without authority over the
        request answers with the owner's address; the client re-sends
        there."""
        topology = self.topology
        slot = req.slot
        target = req.node
        if self._authority(req, target):
            return True
        self.moved_redirects += 1
        if self.failover is not None and self.failover.promotions \
                and topology.epoch(slot) > 0:
            # the lazy-vs-eager A/B's numerator: redirects spent
            # re-learning slots a promotion (or later churn) has
            # actually rewired — eager's broadcast pre-heals exactly
            # these, lazy pays one MOVED per re-touch
            self.post_promotion_moved += 1
        client = req.client
        t = self.network.one_way(self.servers[target].name, client.name,
                                 REDIRECT_BYTES, req.t + REDIRECT_CYCLES)
        owner = topology.owner(slot)
        client.on_moved(slot, owner)
        if req.is_write:
            req.node = req.backer
        else:
            # the MOVED reply named the owner; an ineligible GET still
            # peels off to the backer before the re-send
            req.node = client.capability_route(slot, owner, topology,
                                               False, req.oversized)
        req.head = True  # a redirected request restarts its window
        req.t = self.network.one_way(client.name,
                                     self.servers[req.node].name,
                                     req.req_bytes, t)
        return not math.isinf(req.t)

    def _ask(self, req: _Request) -> bool:
        """Stage 3, ASK: the old primary of a slot mid-migration
        forwards one-shot to the importing node, nothing cached."""
        ask = self.migration.ask_target(req.slot, req.node)
        if ask is None:
            return True
        client = req.client
        t = self.network.one_way(self.servers[req.node].name, client.name,
                                 REDIRECT_BYTES, req.t + REDIRECT_CYCLES)
        t = self.network.one_way(client.name, self.servers[ask].name,
                                 req.req_bytes, t)
        if math.isinf(t):
            return False
        req.node = ask
        req.t = t
        req.via_ask = True
        return True

    def _check_route(self, req: _Request) -> None:
        """Stage 4, the routing oracle: the node about to serve must
        hold authority over the request, or import the slot through the
        ASK window that forwarded it."""
        node = req.node
        if not (self._authority(req, node) or req.via_ask
                and node == self.migration.importing_node(req.slot)):
            self.oracle_violations += 1

    def _authority(self, req: _Request, node: int) -> bool:
        """Whether ``node`` may serve ``req``: only the backer acks a
        write; a read may land on the primary or any replica (or, in a
        mixed fleet, the backer)."""
        if req.is_write:
            return node == req.backer
        return node in self.topology.read_set(req.slot)

    def _serve(self, req: _Request) -> bool:
        """Stage 5: a full node serves from its core queues, an
        accelerator from its lookup pipeline; leaves ``req.t`` at the
        response's delivery.  False when a capacity miss's fallback to
        the backer is dropped."""
        server = self.servers[req.node]
        self.capability_checks += 1
        if not isinstance(server, _AccelServer):
            completion = server.serve(req.t)
        elif req.is_write or req.oversized:
            # the capability fence: dispatch makes this path
            # unreachable; if a request ever lands here anyway the
            # violation is recorded loudly (the run raises at the end)
            # and the backer serves it so accounting holds
            self.capability_violations += 1
            req.node = req.backer
            server = self.servers[req.node]
            completion = server.serve(req.t)
        else:
            key = key_bytes(req.key_id)
            if server.model.resident(key):
                completion = server.serve_lookup(req.t, len(key))
            else:
                # capacity miss: the pipeline answers "not here", the
                # client falls back to the slot's full-class backer,
                # and the served value is installed behind the
                # accelerator's pipeline for the next touch
                accel = server
                client = req.client
                t = accel.miss_reply(req.t, len(key))
                t = self.network.one_way(accel.name, client.name,
                                         REDIRECT_BYTES, t)
                server = self.servers[req.backer]
                t = self.network.one_way(client.name, server.name,
                                         req.req_bytes, t)
                if math.isinf(t):
                    return False
                req.node = req.backer
                completion = server.serve(t)
                accel.install(completion, key)
                self.ledger.installed(accel.node_id, req.key_id, req.backer)
        req.t = self.network.one_way(server.name, req.client.name,
                                     req.resp_bytes, completion,
                                     propagate=req.head)
        return True

    def _hedge(self, req: _Request, deadline: float) -> bool:
        """Stage 6, the read hedge: a second copy fires ``hedge_cycles``
        after the attempt started, against the first reachable replica
        (ring order) other than ``req.node``.  Both copies consume
        resources; the hedge wins if it delivers before ``deadline``."""
        if self.hedge_cycles is None or req.is_write:
            return False
        at = req.start + self.hedge_cycles
        client = req.client
        network = self.network
        for node in self.topology.replicas_of(req.slot):
            server = self.servers[node]
            if node == req.node \
                    or not network.reachable(client.name, server.name):
                continue
            # reachable both ways: neither message can drop
            t = network.one_way(client.name, server.name, req.req_bytes,
                                at)
            delivery = network.one_way(server.name, client.name,
                                       req.resp_bytes, server.serve(t))
            self.hedges += 1
            if delivery >= deadline:
                return False
            self.hedge_wins += 1
            req.t, req.node, req.hedged = delivery, node, True
            return True
        return False

    def _ack(self, req: _Request) -> None:
        """Stage 7: learn the route, ack the write (or judge the read)
        and record the latency at the serving node."""
        node = req.node
        if not req.via_ask and not req.hedged:
            # even when this request fell back to the backer, the
            # route to learn is the accelerator: the next GET must try
            # the fast path first
            req.client.on_served(
                req.slot, req.accel if req.accel is not None else node)
        if req.is_write:
            # the primary acks and synchronously replicates to the
            # slot's current replica set — the copies the oracle audits
            self.ledger.ack(req.key_id, req.slot, node)
            self.acked_writes += 1
            if req.accel is not None:
                # write-invalidation: the acked value supersedes
                # whatever copy the accelerator still serves
                self.servers[req.accel].invalidate(req.t,
                                                   key_bytes(req.key_id))
        else:
            self.ledger.read(node, req.key_id)
        latency = req.t - req.arrival
        server = self.servers[node]
        server.histogram.record(latency)
        server.latency_sum += latency
        self.total_latency += latency
        if req.t > self.last_delivery:
            self.last_delivery = req.t

    def _fail(self, req: _Request) -> None:
        """Out of attempts: the request fails; the time burned waiting
        still counts against the tail and the makespan."""
        latency = max(req.start - req.arrival, 0.0)
        self.failed_hist.record(latency)
        self.total_latency += latency
        if req.start > self.last_delivery:
            self.last_delivery = req.start

    # -- fold ----------------------------------------------------------

    def result(self) -> ClusterResult:
        """Drain the schedulers, take both oracles' verdicts and fold
        the run into a :class:`ClusterResult`."""
        config = self.config
        count = self.count
        last_delivery = self.last_delivery
        self.migration.drain(count)
        if self.failover is not None:
            self.failover.drain(last_delivery)
        failover_violations, acked_write_losses = self.ledger.verdict()

        merged = LatencyHistogram(precision=self.precision)
        per_node = []
        for i, server in enumerate(self.servers):
            merged.merge(server.histogram)
            entry = {
                "node": i,
                "closed_loop_throughput": self.node_capacities[i],
                "requests": server.served,
                "busy_fraction": (server.busy / last_delivery
                                  if last_delivery else 0.0),
                "mean_latency": (server.latency_sum / server.served
                                 if server.served else 0.0),
            }
            if self.topology.hetero:
                entry["node_class"] = self.topology.node_class_of(i)
            per_node.append(entry)
        merged.merge(self.failed_hist)
        if merged.count != count:
            raise ClusterError(
                f"lost requests: accounted {merged.count} of {count}")

        caches = [c.cache for c in self.clients if c.cache]
        # cache-less clients classify every resolution as a miss
        route_misses = (sum(cache.misses for cache in caches)
                        if config.route_cache else count)
        resilience = None
        if self.mitigation.enabled:
            resilience = {
                **self.mitigation.to_dict(),
                "timeouts": sum(c.timeouts for c in self.clients),
                "hedges": self.hedges,
                "hedge_wins": self.hedge_wins,
            }
        failover_report = None
        if self.failover is not None:
            ledger = self.ledger
            failover_report = {
                **self.failover.report(),
                "repair_policy": config.repair_policy,
                "write_fraction": WRITE_FRACTION,
                "post_promotion_moved": self.post_promotion_moved,
                "lost_reads": ledger.lost_reads,
                "loss_events": ledger.loss_events,
                "loss_window": (list(ledger.loss_window)
                                if ledger.loss_window else None),
            }

        result = ClusterResult(
            nodes=config.nodes,
            replicas=config.replicas,
            clients=len(self.clients),
            client_batch=config.client_batch,
            route_cache=config.route_cache,
            replica_reads=config.replica_reads,
            process=self.process,
            offered_load=config.offered_load,
            arrival_rate=self.rate,
            total_capacity=self.total_capacity,
            requests=count,
            makespan=last_delivery,
            achieved_throughput=(count / last_delivery
                                 if last_delivery else 0.0),
            mean_latency=self.total_latency / count if count else 0.0,
            latency=merged.percentiles(),
            histogram=merged.to_dict(),
            per_node=per_node,
            fairness=_jain([s.served for s in self.servers]),
            route_hits=sum(cache.hits for cache in caches),
            route_stale_hits=sum(cache.stale_hits for cache in caches),
            route_misses=route_misses,
            moved_redirects=self.moved_redirects,
            ask_redirects=self.migration.ask_redirects,
            migration=self.migration.report(),
            network=self.network.report(),
            oracle_violations=self.oracle_violations,
            writes=sum(self.write_flags),
            acked_writes=self.acked_writes,
            acked_write_losses=acked_write_losses,
            failover_violations=failover_violations,
            failed_requests=self.failed_hist.count,
            eager_repairs=self.eager_repairs,
            resilience=resilience,
            failover=failover_report,
            hetero=self._hetero_report() if self.topology.hetero else None,
        )
        if self.oracle_violations:
            raise ClusterError(
                f"cluster routing oracle: {self.oracle_violations} "
                f"request(s) served by a node without authority over the "
                f"slot")
        if self.capability_violations:
            raise HeteroError(
                f"capability oracle: {self.capability_violations} "
                f"ineligible request(s) reached an accelerator node "
                f"(writes and oversized keys must be dispatched to the "
                f"backer)")
        if failover_violations:
            raise FailoverError(
                f"failover oracle: {failover_violations} acknowledged "
                f"write(s) with a live replica at ack time did not survive "
                f"to the end of the run")
        return result

    def _hetero_report(self) -> dict:
        config = self.config
        node_classes = config.node_classes
        cost_units = fleet_cost(node_classes)
        count = self.count
        achieved = count / self.last_delivery if self.last_delivery else 0.0
        accels = [s for s in self.servers if isinstance(s, _AccelServer)]
        # every accelerator lookup is a hit or a capacity fallback
        accel_gets = sum(s.lookups for s in accels)
        accel_hits = sum(s.hits for s in accels)
        fallbacks = {"capacity": sum(s.misses for s in accels),
                     "set": self.fallback_set,
                     "oversized": self.fallback_oversized}
        return {
            "node_types": format_node_types(node_classes),
            "node_classes": list(node_classes),
            "fleet_cost_units": cost_units,
            "accel_keys": config.effective_accel_keys,
            "big_key_fraction": config.hetero_big_key_fraction,
            "accel_gets": accel_gets,
            "accel_hits": accel_hits,
            "accel_hit_fraction": (accel_hits / accel_gets
                                   if accel_gets else 0.0),
            "fallbacks": fallbacks,
            "fallback_rate": (sum(fallbacks.values()) / count
                              if count else 0.0),
            "cap_reroutes": sum(c.cap_reroutes for c in self.clients),
            "capability_checks": self.capability_checks,
            "capability_violations": self.capability_violations,
            "cost_normalized_throughput": (achieved / cost_units
                                           if cost_units else 0.0),
            "per_accel": [s.report() for s in accels],
        }


def simulate_cluster(
    config,
    node_capacities: Sequence[float],
    node_op_cycles: Sequence[Sequence[Sequence[int]]],
    *,
    precision: int = DEFAULT_PRECISION,
) -> ClusterResult:
    """Run the cluster overlay over measured per-node service times.

    ``node_capacities[i]`` is node ``i``'s closed-loop throughput
    (ops/cycle); ``node_op_cycles[i][c]`` is the captured per-op
    service sequence of core ``c`` on node ``i``.  Everything else —
    arrivals, key stream, read/write mix, client choices, migration
    and fault schedules — derives from ``config.seed`` through
    namespaced streams.
    """
    overlay = _Overlay(config, node_capacities, node_op_cycles, precision)
    for index, (arrival, key_id) in enumerate(zip(overlay.arrivals,
                                                  overlay.key_ids)):
        overlay.request(index, arrival, key_id)
    return overlay.result()


# ----------------------------------------------------------------------
# driving the overlay from a RunConfig
# ----------------------------------------------------------------------

def _node_config(config, node: int):
    """The single-node engine config of cluster node ``node``.

    Cluster-only knobs are stripped back to their defaults and the
    arrival process forced closed (the cluster overlay *is* the open
    loop).  Node 0 keeps the run seed verbatim — a one-node
    quiet-network cluster therefore runs the exact engine the plain
    path runs, bit-identical to the golden numbers; node ``i`` derives
    the ``node{i}`` stream so fleets stay deterministic per seed.
    """
    seed = config.seed if node == 0 else \
        derive_seed(config.seed, f"node{node}")
    defaults = type(config)()
    return replace(
        config,
        nodes=1,
        replicas=0,
        route_cache=True,
        client_batch=1,
        cluster_clients=defaults.cluster_clients,
        replica_reads=False,
        migrate_rate=0.0,
        net_rtt_cycles=0.0,
        arrival_process="closed",
        service_requests=None,
        node_fault_plan=(),
        failover_detect_cycles=defaults.failover_detect_cycles,
        repair_policy=defaults.repair_policy,
        cluster_timeout=None,
        cluster_retries=defaults.cluster_retries,
        cluster_hedge=None,
        node_types=None,
        hetero_accel_keys=None,
        hetero_big_key_fraction=0.0,
        seed=seed,
    )


def run_cluster(config):
    """Run a full cluster experiment: per-node engines + the overlay.

    Returns the run-level :class:`~repro.sim.results.RunResult`: for a
    one-node cluster, node 0's result verbatim (cycle-identical to the
    plain engine path); for a fleet, the cross-node aggregate (wall
    clock = slowest node, counters summed, per-node payloads riding in
    ``cores``).  The cluster overlay's :class:`ClusterResult` is
    attached as ``result.cluster`` either way.
    """
    # local imports: repro.sim imports this package's sibling modules
    from ..chaos.report import build_chaos_report
    from ..sim.engine import Engine
    from ..sim.multicore import MultiCoreEngine
    from ..sim.results import aggregate_run_results

    per_node_results = []
    capacities: List[float] = []
    captures: List[Sequence[Sequence[int]]] = []
    for node in range(config.nodes):
        if config.hetero_enabled \
                and config.node_classes[node] == NODE_CLASS_ACCEL:
            # accelerator nodes run no software engine: their
            # closed-loop capacity is the lookup pipeline's initiation
            # interval for a canonical resident GET, and they
            # contribute no op-cycle captures
            capacities.append(1.0 / lookup_interval_cycles(
                CANON_KEY_BYTES, config.value_size))
            captures.append(())
            continue
        engine = Engine(_node_config(config, node))
        mc = MultiCoreEngine(engine, capture_op_cycles=True)
        outcome = mc.run()
        result = outcome.per_core[0] if config.num_cores == 1 \
            else outcome.aggregate
        if mc.injector is not None:
            result.chaos = build_chaos_report(engine, mc.injector)
        per_node_results.append(result)
        capacities.append(result.throughput)
        captures.append(outcome.op_cycles)

    cluster = simulate_cluster(config, capacities, captures)
    if config.nodes == 1:
        result = per_node_results[0]
        # the node ran under the stripped config; the run-level label
        # should still say "cluster anchor" (e.g. ...%1n+net300)
        result.label = config.label
    else:
        result = aggregate_run_results(per_node_results, config.label,
                                       config.frontend)
    result.cluster = cluster.to_dict()
    return result
