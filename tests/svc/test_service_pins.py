"""Bit-identity pins for the open-loop service loop (`simulate_service`).

Each case drives the queueing loop directly over synthetic per-core
service sequences — no engine run — and pins the sha256 of its
JSON-encoded :class:`~repro.svc.service.ServiceResult`.  The matrix
covers every dispatch policy, both arrival processes, the unmitigated
run (``mitigation=None`` and an explicit, disabled ``Mitigation()``),
timeout + retry with backoff, hedging, the SLO-aware fallback, all
three mitigations at once, and a 1-core mitigated run.  A refactor of
the loop must leave every digest unchanged.
"""

import hashlib
import json

import pytest

from repro.svc.arrival import make_arrivals
from repro.svc.dispatch import make_dispatcher
from repro.svc.service import Mitigation, simulate_service

REQUESTS = 4000

#: mean of the synthetic service times (cycles), the unit every
#: mitigation budget below is expressed in
MEAN_SERVICE = 200.0

TIMEOUT = Mitigation(timeout_cycles=3 * MEAN_SERVICE, retries=2,
                     backoff=1.5)
HEDGE = Mitigation(hedge_cycles=2 * MEAN_SERVICE)
FALLBACK = Mitigation(fallback=True, slo_cycles=4 * MEAN_SERVICE)
ALL_THREE = Mitigation(timeout_cycles=3 * MEAN_SERVICE, retries=2,
                       backoff=1.5, hedge_cycles=2 * MEAN_SERVICE,
                       fallback=True, slo_cycles=3 * MEAN_SERVICE)

#: name -> (dispatch, arrival process, cores, offered load, mitigation)
CASES = {
    "rr-poisson-none": ("round_robin", "poisson", 3, 0.3, None),
    "rr-poisson-off": ("round_robin", "poisson", 3, 0.8, Mitigation()),
    "keyhash-mmpp-none": ("key_hash", "mmpp", 3, 0.3, None),
    "keyhash-poisson-off": ("key_hash", "poisson", 3, 0.7, Mitigation()),
    "jsq-mmpp-none": ("jsq", "mmpp", 3, 0.9, None),
    "jsq-poisson-off": ("jsq", "poisson", 3, 0.9, Mitigation()),
    "rr-poisson-timeout": ("round_robin", "poisson", 3, 0.85, TIMEOUT),
    "keyhash-mmpp-hedge": ("key_hash", "mmpp", 3, 0.7, HEDGE),
    "rr-mmpp-fallback": ("round_robin", "mmpp", 3, 0.85, FALLBACK),
    "jsq-mmpp-all": ("jsq", "mmpp", 3, 0.9, ALL_THREE),
    "rr-poisson-all": ("round_robin", "poisson", 3, 0.85, ALL_THREE),
    "one-core-all": ("round_robin", "poisson", 1, 0.8, ALL_THREE),
}

DIGESTS = {
    "rr-poisson-none":
        "12166c81e6b91583eb9dd7e349fbca305fcd969501fc98728d4fa014ce135a8e",
    "rr-poisson-off":
        "893a15776f2083909796cd9c061ae4c44b6538350aea0575b6adce6c2c0f8da8",
    "keyhash-mmpp-none":
        "451ece85759fafd4f8af38c663a04dfa069ed77582edc17b69eacc00ca4c20a9",
    "keyhash-poisson-off":
        "10a1bea8219402b5311f11e786cf9d59265f1e738f9ed600afcf7904669b063e",
    "jsq-mmpp-none":
        "904a38e0adc458fc6744109970f98c97a84c7ff0e9862c2aebeb6f66940db474",
    "jsq-poisson-off":
        "85bf2aee779f9c2e18c6d08b75db84ea68110151232ef230b91b8558b1a7aa23",
    "rr-poisson-timeout":
        "226de745316e4c88df19ff07c71311817ef8ca9d4f026f2ecf35869e77ea7534",
    "keyhash-mmpp-hedge":
        "992dcef614f9f1f2a5896d0ed868d8dca83ea65846f810a6d79fe0a404641fbe",
    "rr-mmpp-fallback":
        "9fbea4cd8d71d3557a28338d8720348806f00d1ef4b3d1e7af3e7f6220e786ad",
    "jsq-mmpp-all":
        "f3ddb7437492e17ab69fded6b1af18608a751ee481bfa9fc5da4b974b4e58339",
    "rr-poisson-all":
        "a0b410d47a405e94ade0a1a3edb23fc0a02705022177bed1bdddf2bcb4a5ea21",
    "one-core-all":
        "c9e73f1f5a2965c1e0da5e62e45e9a6abf82b1ef9c74b210637b3c70fd81ed12",
}


def synthetic_service(cores):
    """Per-core sequences of different lengths around MEAN_SERVICE
    cycles; the last core of a multi-core run is a 3x straggler, so
    every mitigation has a slow core to route around."""
    sequences = []
    for core in range(cores):
        slow = 3 if cores > 1 and core == cores - 1 else 1
        sequences.append([
            slow * (100 + (i * 7919 + core * 31) % 201)
            for i in range(47 + 6 * core)])
    return sequences


def _run(name):
    policy, process, cores, load, mitigation = CASES[name]
    service = synthetic_service(cores)
    capacity = sum(len(seq) / sum(seq) for seq in service)
    rate = load * capacity
    arrivals = make_arrivals(process, rate, REQUESTS, seed=11)
    key_ids = [(i * 2654435761) % 1009 for i in range(REQUESTS)]
    return simulate_service(
        service, arrivals, key_ids, make_dispatcher(policy, cores),
        process=process, offered_load=load, arrival_rate=rate,
        closed_loop_throughput=capacity, mitigation=mitigation)


def _digest(result) -> str:
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_service_result_is_pinned(name):
    assert _digest(_run(name)) == DIGESTS[name]


def test_matrix_covers_every_path():
    """The pins only guard mechanisms the matrix actually reaches."""
    results = {name: _run(name) for name in CASES}
    for counter in ("timeouts", "retries", "hedges", "hedge_wins",
                    "fallbacks"):
        assert any(getattr(r, counter) > 0 for r in results.values()), \
            counter
    assert results["rr-poisson-none"].mitigation is None
    assert results["rr-poisson-off"].mitigation is None
    assert results["one-core-all"].timeouts > 0
