"""The benchmark's workloads, their expected counts and output checks.

Every workload is a set of :class:`repro.sim.config.RunConfig` fields;
the benchmark's ``--seed`` becomes the config's ``seed``.  Why each
workload exists, and which layer it stresses, is in ``NOTES.md``.

This module is imported by the parent process (``run.py``), which
checks outputs, and by each worker process (``worker.py``), which runs
the simulator; it imports nothing from ``repro`` at module level, so
the parent can load it before it knows the checkout holds the
simulator.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Dict, List


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: RunConfig fields (the seed is added per run)
    fields: Dict[str, object]
    #: smaller sizes for the smoke tests, merged over ``fields``
    toy: Dict[str, object]
    #: facts -> failure messages for the mechanism this workload exists
    #: to exercise
    mechanism: Callable[[dict], List[str]]


def _redis_mechanism(facts: dict) -> List[str]:
    return [] if facts["fast_hits"] > 0 else ["no STLT fast-path hits"]


def _kernel_mechanism(facts: dict) -> List[str]:
    failures = []
    if facts["sets"] <= 0:
        failures.append("no measured SETs")
    if facts["chaos_events"] <= 0:
        failures.append("no chaos events fired")
    if not facts["has_service"]:
        failures.append("no open-loop service outcome")
    return failures


def _fleet_mechanism(facts: dict) -> List[str]:
    failures = []
    if facts["promotions"] != 1:
        failures.append(f"promotions {facts['promotions']} != 1")
    if facts["accel_hits"] <= 0:
        failures.append("no accelerator-node hits")
    for name in ("routing_violations", "capability_violations",
                 "failover_violations"):
        if facts[name]:
            failures.append(f"{name} {facts[name]} != 0")
    return failures


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="redis-fig11",
        why="paper Fig. 11 Redis+STLT point; build-dominated (SipHash "
            "populate, xxh3 prefill), so set-up and hash work show here",
        fields=dict(program="redis", frontend="baseline", accel="stlt",
                    distribution="zipf", num_keys=60_000,
                    measure_ops=2_000, warmup_ops=4_000),
        toy=dict(num_keys=2_000, measure_ops=200, warmup_ops=400),
        mechanism=_redis_mechanism,
    ),
    Workload(
        name="kernel-latest-churn",
        why="2-core open-loop kernel run with SETs and OS churn; the run "
            "loop, memory hierarchy, chaos and svc queue dominate",
        fields=dict(program="unordered_map", frontend="stlt",
                    distribution="latest", num_cores=2, num_keys=20_000,
                    measure_ops=3_000, warmup_ops=3_000,
                    arrival_process="poisson", offered_load=0.8,
                    churn_rate=0.002),
        toy=dict(num_keys=2_000, measure_ops=300, warmup_ops=300,
                 churn_rate=0.02),
        mechanism=_kernel_mechanism,
    ),
    Workload(
        name="fleet-hetero-failover",
        why="3-node 2full+1accel fleet with a crash and restart; the only "
            "workload that runs the cluster overlay and hetero dispatch",
        fields=dict(nodes=3, node_types="2full+1accel", replicas=1,
                    num_cores=2, frontend="stlt", distribution="zipf",
                    num_keys=6_000, measure_ops=1_200, net_rtt_cycles=300,
                    offered_load=0.2, service_requests=40_000,
                    node_fault_plan=("crash:node=1,at=0.50",
                                     "restart:node=1,at=0.53"),
                    failover_detect_cycles=2_000, cluster_timeout=4),
        toy=dict(measure_ops=300, service_requests=4_000),
        mechanism=_fleet_mechanism,
    ),
)}


def make_config(name: str, seed: int, toy: bool = False):
    from repro.sim.config import RunConfig
    workload = WORKLOADS[name]
    fields = dict(workload.fields, seed=seed)
    if toy:
        fields.update(workload.toy)
    return RunConfig(**fields)


def expected_counts(config) -> Dict[str, object]:
    """What a correct run of ``config`` must report, from the config
    alone: measured ops of each full node, and the request count of an
    open-loop or fleet run (None for a closed-loop single node)."""
    if config.hetero_enabled:
        from repro.hetero import NODE_CLASS_ACCEL
        full_nodes = sum(1 for c in config.node_classes
                         if c != NODE_CLASS_ACCEL)
    else:
        full_nodes = config.nodes
    requests = None
    if config.nodes > 1 or config.arrival_process != "closed":
        requests = (config.service_requests
                    if config.service_requests is not None
                    else config.num_cores * config.measure_ops)
    return {
        "node_ops": [config.measure_ops * config.num_cores] * full_nodes,
        "requests": requests,
    }


def result_digest(result) -> str:
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def facts_of(result) -> Dict[str, object]:
    """The simulated outcomes the checks and the per-layer report read,
    flattened from a :class:`repro.sim.results.RunResult`.  Counts of a
    layer the workload does not run read 0; request counts and the
    fast-path miss rate read None there, so a check can tell them from
    a real 0."""
    mem = result.mem
    miss_rate = result.fast_miss_rate
    facts: Dict[str, object] = {
        "ops": result.ops,
        "sets": result.sets,
        "node_ops": ([c["ops"] for c in result.cores]
                     if result.cluster is not None and result.cores
                     else [result.ops]),
        "cycles_per_op": result.cycles_per_op,
        "stlb_misses": mem.stlb_misses,
        "page_walks": mem.page_walks,
        "l3_misses": mem.l3_misses,
        "fast_miss_rate": miss_rate,
        "fast_hits": (round(result.gets * (1.0 - miss_rate))
                      if miss_rate is not None else 0),
        "has_service": result.service is not None,
        "svc_requests": (result.service["requests"]
                         if result.service is not None else None),
        "svc_p99_cycles": (result.service["latency"]["p99"]
                           if result.service is not None else 0),
        "chaos_events": 0,
        "stlt_rows_scrubbed": 0,
        "cluster_requests": None,
        "failed_requests": 0,
        "cluster_p99_cycles": 0,
        "moved_redirects": 0,
        "route_hit_rate": 0.0,
        "promotions": 0,
        "accel_hits": 0,
        "accel_hit_fraction": 0.0,
        "fallback_rate": 0.0,
        "routing_violations": 0,
        "capability_violations": 0,
        "failover_violations": 0,
    }
    if result.chaos is not None:
        facts["chaos_events"] = sum(result.chaos["events"].values())
        facts["stlt_rows_scrubbed"] = result.chaos["stlt_rows_scrubbed"]
    if result.cluster is not None:
        cluster = result.cluster
        facts.update(
            cluster_requests=cluster["requests"],
            failed_requests=cluster["failed_requests"],
            cluster_p99_cycles=cluster["latency"]["p99"],
            moved_redirects=cluster["moved_redirects"],
            route_hit_rate=result.cluster_result().route_hit_rate,
            routing_violations=cluster["oracle_violations"],
            failover_violations=cluster["failover_violations"],
        )
        if cluster.get("failover"):
            facts["promotions"] = cluster["failover"]["promotions"]
        hetero = cluster.get("hetero")
        if hetero:
            facts.update(
                accel_hits=hetero["accel_hits"],
                accel_hit_fraction=hetero["accel_hit_fraction"],
                fallback_rate=hetero["fallback_rate"],
                capability_violations=hetero["capability_violations"],
            )
    return facts


def check(workload: Workload, config, facts: dict) -> List[str]:
    """Failure messages for one run; empty when the outputs are right."""
    expected = expected_counts(config)
    failures = []
    if facts["node_ops"] != expected["node_ops"]:
        failures.append(f"measured ops per full node {facts['node_ops']} "
                        f"!= {expected['node_ops']}")
    if expected["requests"] is not None:
        got = (facts["cluster_requests"] if config.nodes > 1
               else facts["svc_requests"])
        if got != expected["requests"]:
            failures.append(f"requests {got} != {expected['requests']}")
    return failures + workload.mechanism(facts)
