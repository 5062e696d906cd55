"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 [--toy]

Imports the simulator, checks that no hash memo is warm, times
``run_experiment(config)`` from call to return while sampling the host
core's speed (``hostspeed.py``), and prints one JSON record on stdout:
timings, the result digest and the simulated facts the parent checks.
With ``--trace 1`` the run is wrapped in phase spans and ``cProfile``
instead, and the record carries the per-layer numbers.
A run that raises a ``ReproError`` is reported in the record; anything
else exits non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)

    # everything run_experiment imports lazily is imported here, so
    # import time stays outside the timed call
    import repro.accel  # noqa: F401
    import repro.chaos.injector  # noqa: F401
    import repro.chaos.report  # noqa: F401
    import repro.cluster.service  # noqa: F401
    import repro.core.row  # noqa: F401
    import repro.mem.kernels  # noqa: F401
    import repro.svc.service  # noqa: F401
    from repro.errors import ReproError
    from repro.hashes.registry import HASH_FUNCTIONS
    from repro.sim.engine import run_experiment

    import hostspeed
    import tracing
    import workloads

    config = workloads.make_config(args.workload, args.seed, args.toy)
    warm = sorted(n for n, spec in HASH_FUNCTIONS.items() if spec._cache)
    if warm:
        raise SystemExit(f"hash memo already warm before the run: {warm}")

    tracer = tracing.Tracer(phases=bool(args.trace))
    # a traced repetition is profiled instead of speed-sampled: its
    # host times are per-layer numbers, which have no bound
    profile = sampler = None
    if args.trace:
        import cProfile
        profile = cProfile.Profile()
    else:
        sampler = hostspeed.SpeedSampler()
    error = None
    with tracer.installed(), sampler or contextlib.nullcontext():
        start = time.perf_counter()
        if profile is not None:
            profile.enable()
        try:
            result = run_experiment(config)
        except ReproError as exc:
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if profile is not None:
                profile.disable()
        wall_s = time.perf_counter() - start

    if error is not None:
        print(json.dumps({"ok": False, "error": error}))
        return 0
    record = {
        "ok": True,
        "digest": workloads.result_digest(result),
        "wall_s": wall_s,
        "setup_s": sum(end - begin for begin, end in tracer.builds),
        "engine_ops": tracer.engine_ops,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "facts": workloads.facts_of(result),
    }
    if sampler is not None:
        record["speed"] = sampler.speed()
        record["wall_ref_s"] = sampler.reference_s(start, start + wall_s)
        record["setup_ref_s"] = sum(sampler.reference_s(a, b)
                                    for a, b in tracer.builds)
    if profile is not None:
        phases = tracer.spans.self_seconds()
        layers = {f"{name}_s": phases.get(name, 0.0)
                  for name in tracing.PHASES}
        layers.update(tracing.profile_layers(profile))
        record["layers"] = layers
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
