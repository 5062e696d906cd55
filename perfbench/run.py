"""Host-time benchmark of the simulator, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``workloads.py`` again and again for ``S`` seconds,
one repetition at a time, each in a fresh interpreter (``worker.py``),
and checks every repetition's outputs.  With ``--trace 0`` it reports
the end-to-end metrics, timed in reference seconds (``hostspeed.py``).
With ``--trace 1`` it spends half the time on untraced repetitions and
the other half on traced ones, and reports the per-layer metrics.  The
last line of stdout is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``.  The metrics, their units and what each should
move are described in ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

#: untraced repetitions per run at least, so set-up is timed several times
MIN_REPS = 3
#: a repetition that takes longer than this is killed and counts as failed
REP_TIMEOUT_S = 120
#: the traced per-package self times must cover the traced wall time
#: to within this share (cProfile's own bookkeeping is the gap)
SELF_TIME_TOLERANCE = 0.10

END_TO_END: List[Tuple[str, str]] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

#: per-layer metric -> unit, for the host-time numbers of a traced run
HOST_LAYERS: List[Tuple[str, str]] = (
    [(f"{phase}_s", "s") for phase in tracing.PHASES]
    + [(f"{bucket}.self_s", "s") for bucket in tracing.BUCKETS]
    + [("mem.access_calls", "count"), ("mem.ns_per_access", "ns"),
       ("hashes.calls", "count"), ("hashes.memo_hit_ratio", "ratio")])

#: per-layer metric -> (fact from workloads.facts_of, unit); simulated
#: outcomes, exact for a given seed
EXACT_LAYERS: List[Tuple[str, str, str]] = [
    ("sim.cycles_per_op", "cycles_per_op", "cycles"),
    ("sim.ops", "ops", "count"),
    ("sim.sets", "sets", "count"),
    ("mem.stlb_misses", "stlb_misses", "count"),
    ("mem.page_walks", "page_walks", "count"),
    ("mem.l3_misses", "l3_misses", "count"),
    ("core.fast_miss_rate", "fast_miss_rate", "ratio"),
    ("chaos.events", "chaos_events", "count"),
    ("chaos.stlt_rows_scrubbed", "stlt_rows_scrubbed", "count"),
    ("svc.p99_cycles", "svc_p99_cycles", "cycles"),
    ("cluster.requests", "cluster_requests", "count"),
    ("cluster.failed_requests", "failed_requests", "count"),
    ("cluster.p99_cycles", "cluster_p99_cycles", "cycles"),
    ("cluster.moved_redirects", "moved_redirects", "count"),
    ("cluster.route_hit_rate", "route_hit_rate", "ratio"),
    ("cluster.promotions", "promotions", "count"),
    ("hetero.accel_hit_fraction", "accel_hit_fraction", "ratio"),
    ("hetero.fallback_rate", "fallback_rate", "ratio"),
]

PER_LAYER: List[Tuple[str, str]] = (
    HOST_LAYERS
    + [("host.speed", "ratio"), ("trace.overhead", "x"),
       ("failed_frac", "ratio")]
    + [(name, unit) for name, _, unit in EXACT_LAYERS])


class Rep:
    """One repetition: the worker's record and what failed in it."""

    def __init__(self, record: Optional[dict], failures: List[str]) -> None:
        self.record = record
        self.failures = failures

    @property
    def timed(self) -> bool:
        return self.record is not None and self.record["ok"]


def spawn(name: str, seed: int, trace: bool, toy: bool) -> Rep:
    """Run one repetition in a fresh interpreter and parse its record."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", name, "--seed", str(seed),
           "--trace", str(int(trace))]
    if toy:
        cmd.append("--toy")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Rep(None, [f"timed out after {REP_TIMEOUT_S} s"])
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return Rep(None, [f"worker exited {proc.returncode}: {tail[0]}"])
    record = json.loads(lines[-1])
    if not record["ok"]:
        return Rep(record, [record["error"]])
    return Rep(record, [])


def run_reps(name: str, seed: int, trace: bool, toy: bool, deadline: float,
             min_reps: int, config) -> List[Rep]:
    """Repetitions until ``deadline`` (at least ``min_reps``), each
    checked against what ``config`` must produce."""
    workload = workloads.WORKLOADS[name]
    reps: List[Rep] = []
    while len(reps) < min_reps or time.monotonic() < deadline:
        rep = spawn(name, seed, trace, toy)
        if rep.timed:
            rep.failures += workloads.check(workload, config,
                                            rep.record["facts"])
        reps.append(rep)
    return reps


def reference_digest(reps: List[Rep]) -> Optional[str]:
    """The digest most repetitions agree on; repetitions at one seed
    must all produce it, so every other digest is marked failed."""
    digests = Counter(rep.record["digest"] for rep in reps if rep.timed)
    if not digests:
        return None
    digest = digests.most_common(1)[0][0]
    for rep in reps:
        if rep.timed and rep.record["digest"] != digest:
            rep.failures.append(f"digest {rep.record['digest']} differs "
                                f"from {digest} at the same seed")
    return digest


def end_to_end(reps: List[Rep]) -> Dict[str, float]:
    """Medians over the repetitions, timings in reference seconds.

    Other tenants of a shared host slow a repetition by up to about 2x,
    in phases of tens of milliseconds to minutes; host seconds moved by
    a quarter between runs.  Scaling each interval by the speed its
    core was sampled at (``hostspeed.py``) removes most of that.
    """
    records = [rep.record for rep in reps if rep.timed]
    return {
        "wall_s": statistics.median(r["wall_ref_s"] for r in records),
        "setup_s": statistics.median(r["setup_ref_s"] for r in records),
        "sim_ops_per_s": statistics.median(
            r["engine_ops"] / (r["wall_ref_s"] - r["setup_ref_s"])
            for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }


def check_traced(rep: Rep, digest: Optional[str]) -> None:
    record = rep.record
    if record["digest"] != digest:
        rep.failures.append(f"traced digest {record['digest']} != "
                            f"untraced {digest}")
    covered = sum(record["layers"][f"{bucket}.self_s"]
                  for bucket in tracing.BUCKETS)
    if abs(covered - record["wall_s"]) > SELF_TIME_TOLERANCE * record["wall_s"]:
        rep.failures.append(f"self times sum to {covered:.3f} s, traced "
                            f"wall is {record['wall_s']:.3f} s")


def per_layer(untraced: List[Rep], traced: List[Rep],
              failed_frac: float) -> Dict[str, float]:
    records = [rep.record for rep in traced if rep.timed]
    metrics = {name: statistics.median(r["layers"][name] for r in records)
               for name, _ in HOST_LAYERS}
    plain = [rep.record for rep in untraced if rep.timed]
    metrics["host.speed"] = statistics.median(r["speed"] for r in plain)
    metrics["trace.overhead"] = (
        statistics.median(r["wall_s"] for r in records)
        / statistics.median(r["wall_s"] for r in plain))
    metrics["failed_frac"] = failed_frac
    facts = records[0]["facts"]
    for name, fact, _ in EXACT_LAYERS:
        metrics[name] = facts[fact] if facts[fact] is not None else 0
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool,
            toy: bool = False) -> dict:
    """Run one workload for ``seconds`` and return the result object."""
    config = workloads.make_config(name, seed, toy)
    start = time.monotonic()
    untraced_until = start + (seconds / 2 if trace else seconds)
    untraced = run_reps(name, seed, False, toy, untraced_until,
                        1 if trace else MIN_REPS, config)
    digest = reference_digest(untraced)
    traced: List[Rep] = []
    if trace:
        traced = run_reps(name, seed, True, toy, start + seconds, 1, config)
        for rep in traced:
            if rep.timed:
                check_traced(rep, digest)
    reps = untraced + traced
    failed = sum(1 for rep in reps if rep.failures)
    for i, rep in enumerate(reps):
        if rep.timed:
            record = rep.record
            print(f"  rep {i} host wall_s={record['wall_s']:.4f} "
                  f"setup_s={record['setup_s']:.4f} "
                  + (f"speed={record['speed']:.4f}" if "speed" in record
                     else "traced"))
        for failure in rep.failures:
            print(f"{name} seed={seed} rep {i}: FAILED {failure}",
                  file=sys.stderr)
    parts = [untraced, traced] if trace else [untraced]
    if not all(any(rep.timed for rep in part) for part in parts):
        metrics = {}  # nothing to time: main() exits non-zero
    elif trace:
        metrics = per_layer(untraced, traced, failed / len(reps))
    else:
        metrics = end_to_end(untraced)
    units = dict(PER_LAYER if trace else END_TO_END)
    print(f"{name} seed={seed} digest={digest} reps={len(reps)} "
          f"failed={failed}")
    return {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the repro simulator.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy-sized workload (smoke tests only)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator source under {SRC}",
              file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.toy)
    for key, metric in result["metrics"].items():
        print(f"  {key:28s} {metric['value']!r} {metric['unit']}")
    if not result["metrics"]:
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
