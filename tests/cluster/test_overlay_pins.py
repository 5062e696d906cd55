"""Bit-identity pins for the cluster overlay (`simulate_cluster`).

Each case drives the overlay directly over synthetic per-node service
sequences — no engine run — and pins the sha256 of its JSON-encoded
:class:`~repro.cluster.service.ClusterResult`.  The matrix covers every
request-lifecycle stage: route-cache hits and bootstrap misses, MOVED
and ASK redirects, replica reads, batching, crash/restart with
promotion, read hedges, partitions, degradation, the eager-repair
broadcast, a replica-less mixed fleet with accelerator hits, capacity
fallbacks, oversized keys and acked-write loss, and a replicated
4-node mixed fleet whose crash is covered by one promotion.  A refactor
of the overlay must leave every digest unchanged.
"""

import hashlib
import json

import pytest

from repro.cluster.service import simulate_cluster
from repro.hetero.fleet import NODE_CLASS_ACCEL
from repro.sim.config import RunConfig

COMMON = dict(num_keys=2000, distribution="zipf", service_requests=3000,
              net_rtt_cycles=300.0, seed=7)

CASES = {
    "plain": dict(nodes=3),
    "no-cache-batch-replica-reads": dict(
        nodes=3, route_cache=False, client_batch=4, replica_reads=True,
        replicas=1),
    "migration": dict(nodes=4, migrate_rate=0.01),
    "crash-restart-hedge": dict(
        nodes=3, replicas=1, cluster_hedge=2.0,
        node_fault_plan=("crash:node=1,at=0.3", "restart:node=1,at=0.6"),
        failover_detect_cycles=2000.0),
    "eager-partition-degrade": dict(
        nodes=3, replicas=1, repair_policy="eager",
        node_fault_plan=("partition:node=2,start=0.2,stop=0.5",
                         "degrade:node=0,factor=4,start=0.4,stop=0.7"),
        failover_detect_cycles=2000.0),
    "hetero-crash-restart": dict(
        nodes=3, node_types="2full+1accel", replicas=0,
        hetero_big_key_fraction=0.05,
        node_fault_plan=("crash:node=1,at=0.5", "restart:node=1,at=0.7"),
        failover_detect_cycles=2000.0),
    "hetero4-crash-restart": dict(
        nodes=4, node_types="3full+1accel", replicas=1,
        node_fault_plan=("crash:node=1,at=0.5", "restart:node=1,at=0.53"),
        failover_detect_cycles=2000.0, cluster_timeout=4),
}

DIGESTS = {
    "plain":
        "f46527622af694340426a8de4886e808864af5f02119d32eef98d07fea6560ba",
    "no-cache-batch-replica-reads":
        "85870602ce3fe752f6f6f7de2dfd70630e8c327ff3f2a4f481a806b6adc26f55",
    "migration":
        "efd66d75a12756c0d33f0841f19db1b451e8dcd6a935d588902a88cccd296d45",
    "crash-restart-hedge":
        "a25d09f0bb05d12d2700e14dd2985d307e5f588e2e66dc8e6ec32b9afd2ccd00",
    "eager-partition-degrade":
        "b7ba0f1991d19dee3ed15fbb1da89a989e4f60a5ed0a3f5a2665075600d08dc7",
    "hetero-crash-restart":
        "41403dc4a09cfab28788aebe186be28f61a8e81895a61d11b169e257e225240a",
    "hetero4-crash-restart":
        "197253ab4a557983a15f65fbd0ba79d1c5a78bc35f5fb69380fef84878e26035",
}


def synthetic_op_cycles(config):
    """Two cores per full node, each a fixed 61-entry sequence of
    100..300-cycle service times; accelerator nodes capture none."""
    classes = config.node_classes if config.hetero_enabled else None
    captures = []
    for node in range(config.nodes):
        if classes is not None and classes[node] == NODE_CLASS_ACCEL:
            captures.append(())
            continue
        captures.append([[100 + (i * 7919 + node * 31 + core * 17) % 201
                          for i in range(61)] for core in range(2)])
    return captures


def _run(name):
    config = RunConfig(**COMMON, **CASES[name])
    return simulate_cluster(config, [0.01] * config.nodes,
                            synthetic_op_cycles(config))


def _digest(result) -> str:
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_overlay_result_is_pinned(name):
    assert _digest(_run(name)) == DIGESTS[name]


def test_matrix_covers_every_stage():
    """The pins only guard stages the matrix actually reaches."""
    results = {name: _run(name) for name in CASES}
    assert results["plain"].route_misses > 0
    assert results["plain"].moved_redirects > 0
    assert results["no-cache-batch-replica-reads"].route_hits == 0
    assert results["migration"].ask_redirects > 0
    crash = results["crash-restart-hedge"]
    assert crash.failover["promotions"] > 0
    assert crash.failed_requests > 0
    assert crash.resilience["hedge_wins"] > 0
    assert crash.failover["post_promotion_moved"] > 0
    eager = results["eager-partition-degrade"]
    assert eager.eager_repairs > 0
    assert eager.network["degraded_transfers"] > 0
    hetero = results["hetero-crash-restart"]
    assert hetero.hetero["accel_hits"] > 0
    assert hetero.hetero["fallbacks"]["capacity"] > 0
    assert hetero.hetero["fallbacks"]["oversized"] > 0
    assert hetero.failed_requests > 0
    assert hetero.acked_write_losses > 0
    assert hetero.failover["lost_reads"] > 0
    hetero4 = results["hetero4-crash-restart"]
    assert hetero4.failover["promotions"] == 1
    assert hetero4.failover["loss_events"] == 0
    assert hetero4.failover_violations == 0
    assert hetero4.hetero["accel_hits"] > 0
