"""Spans around the simulator's public callables, and cProfile grouping.

Only the benchmark instruments the program: :class:`Tracer` patches a
few public callables of ``repro`` for the length of one run, keeps the
spans in memory, and restores the originals afterwards.  Nothing inside
``src/`` knows it is being traced.
"""

from __future__ import annotations

import functools
import os
import pstats
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

#: packages whose self time is reported as ``<pkg>.self_s``; other
#: ``repro`` modules go to ``other``, everything outside ``repro``
#: (stdlib, builtins, this benchmark) to ``python``
PACKAGES = ("hashes", "kvs", "core", "accel", "mem", "sim", "workloads",
            "svc", "chaos", "cluster", "hetero")
BUCKETS = PACKAGES + ("other", "python")

#: span name -> what it wraps (reported as ``<name>_s``)
PHASES = ("workloads.gen", "sim.build", "sim.run", "svc.serve",
          "cluster.overlay")


class Spans:
    """In-memory spans: name, accumulated seconds, parent index.

    A span may be resumed several times (a generator is timed once per
    ``next``); its duration is the sum of its active intervals.
    """

    def __init__(self) -> None:
        self.records: List[list] = []
        self._stack: List[int] = []

    def add(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.records.append([name, 0.0, parent])
        return len(self.records) - 1

    @contextmanager
    def resume(self, index: int):
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.records[index][1] += time.perf_counter() - start
            self._stack.pop()

    def span(self, name: str):
        return self.resume(self.add(name))

    def self_seconds(self) -> Dict[str, float]:
        """Per name: duration minus the time its child spans cover."""
        child = [0.0] * len(self.records)
        for _, seconds, parent in self.records:
            if parent is not None:
                child[parent] += seconds
        out: Dict[str, float] = defaultdict(float)
        for i, (name, seconds, _) in enumerate(self.records):
            out[name] += seconds - child[i]
        return dict(out)


class _TimedIterator:
    """Times the consumption of a generator, not its creation."""

    def __init__(self, spans: Spans, name: str, iterator) -> None:
        self._spans = spans
        self._index = spans.add(name)
        self._iterator = iterator

    def __iter__(self):
        return self

    def __next__(self):
        with self._spans.resume(self._index):
            return next(self._iterator)


class Tracer:
    """Patches the run's layer boundaries with span recorders.

    ``phases=False`` wraps only ``Engine.__init__`` — the set-up timer
    the untraced runs need for ``setup_s``; ``builds`` keeps its
    intervals, to convert them to reference seconds.  ``engine_ops``
    counts the simulated operations (warm-up + measured, every core) of
    every engine built.
    """

    def __init__(self, phases: bool) -> None:
        self.spans = Spans()
        #: (start, end) of every Engine.__init__, in perf_counter time
        self.builds: List[Tuple[float, float]] = []
        self.engine_ops = 0
        self._phases = phases
        self._undo: List[tuple] = []

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        spans = self.spans

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with spans.span(name):
                return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    @contextmanager
    def installed(self):
        import repro.cluster.service as cluster_service
        import repro.sim.multicore as multicore
        import repro.svc.service as svc_service
        from repro.sim.engine import Engine

        tracer = self
        engine_init = Engine.__init__

        @functools.wraps(engine_init)
        def init(engine, config):
            start = time.perf_counter()
            with tracer.spans.span("sim.build"):
                engine_init(engine, config)
            tracer.builds.append((start, time.perf_counter()))
            tracer.engine_ops += config.total_ops * config.num_cores

        self._patch(Engine, "__init__", init)
        if self._phases:
            self._wrap(multicore.MultiCoreEngine, "run", "sim.run")
            self._wrap(svc_service, "service_from_config", "svc.serve")
            self._wrap(cluster_service, "simulate_cluster",
                       "cluster.overlay")
            generate = multicore.generate_operations

            @functools.wraps(generate)
            def generate_operations(*args, **kwargs):
                return _TimedIterator(tracer.spans, "workloads.gen",
                                      generate(*args, **kwargs))

            self._patch(multicore, "generate_operations",
                        generate_operations)
        try:
            yield self
        finally:
            while self._undo:
                owner, attr, original = self._undo.pop()
                setattr(owner, attr, original)


def _code_key(func) -> tuple:
    code = func.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _bucket(filename: str, repro_dir: str) -> str:
    if not os.path.isabs(filename):
        return "python"  # builtins ("~") and frozen modules
    rel = os.path.relpath(filename, repro_dir)
    if rel.startswith(".."):
        return "python"
    head = rel.split(os.sep)[0]
    return head if head in PACKAGES else "other"


def profile_layers(profile) -> Dict[str, float]:
    """Self time per package and host cost per simulated event from a
    finished :class:`cProfile.Profile` of one run."""
    import repro
    from repro.hashes.registry import HASH_FUNCTIONS, HashSpec
    from repro.mem.hierarchy import MemorySystem

    repro_dir = os.path.dirname(os.path.abspath(repro.__file__))
    stats = pstats.Stats(profile).stats
    self_s = dict.fromkeys(BUCKETS, 0.0)
    for (filename, _, _), (_, _, tt, _, _) in stats.items():
        self_s[_bucket(filename, repro_dir)] += tt

    def calls_and_seconds(func) -> tuple:
        """(calls, inclusive seconds) of one profiled function."""
        entry: Optional[tuple] = stats.get(_code_key(func))
        return (entry[1], entry[3]) if entry else (0, 0.0)

    access = [calls_and_seconds(MemorySystem.access),
              calls_and_seconds(MemorySystem.physical_access)]
    access_calls = sum(calls for calls, _ in access)
    access_s = sum(seconds for _, seconds in access)
    hash_calls = calls_and_seconds(HashSpec.__call__)[0]
    # every memo miss inserts exactly one entry, and the memo started
    # empty, so the entries are the calls that reached the hash itself
    hash_misses = sum(len(spec._cache) for spec in HASH_FUNCTIONS.values())
    layers = {f"{bucket}.self_s": seconds
              for bucket, seconds in self_s.items()}
    layers.update({
        "mem.access_calls": access_calls,
        "mem.ns_per_access": (access_s / access_calls * 1e9
                              if access_calls else 0.0),
        "hashes.calls": hash_calls,
        "hashes.memo_hit_ratio": (1.0 - hash_misses / hash_calls
                                  if hash_calls else 0.0),
    })
    return layers
