"""How fast the host core ran while a repetition ran.

The benchmark's host is shared: other tenants' work on the same
physical core and cache slows the simulator by up to about 2x, and the
slowdown comes and goes over tens of milliseconds to minutes.  It is
not visible as steal time or in the process's CPU time.  So a helper
thread times a fixed probe every ``INTERVAL_S`` while the repetition
runs; the probe runs on the same core, between the simulator's own time
slices, and slows down with it.

The probe's speed is the mean of ``REFERENCE_S / probe time``; the
simulator's, :meth:`SpeedSampler.speed`, is that to the power
``SENSITIVITY``.  1.0 means the core ran at the reference speed
throughout, 0.7 that it ran at 70% of it on average.  Host seconds
times the speed are *reference seconds*: about what the repetition
would have taken on the uncontended reference core.  The probe touches none of the simulator's
objects and allocates nothing the garbage collector tracks; a change to
the simulator can move it only through the caches they share.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import List, Tuple

#: seconds between two probes
INTERVAL_S = 0.02
#: probe time on an uncontended core of the reference host (a 2-vCPU
#: 2.1 GHz Xeon VM running CPython 3.11); a constant, so reference
#: seconds compare across runs and commits
REFERENCE_S = 0.00036

#: how much more the simulator slows down than the probe under the same
#: contention: on the reference host, the log host seconds of
#: ``redis-fig11`` and ``kernel-latest-churn`` repetitions regressed on
#: the log of their mean probe speed with slopes 1.36-1.48
SENSITIVITY = 1.4
#: probe table size: a few hundred KB of dict, like the simulator's hot
#: tables; ints only, so the garbage collector never tracks it
_ENTRIES = 4096
#: lookups per probe: about 0.4 ms, 2% of the repetition's time
_STEPS = 500


class SpeedSampler:
    """Context manager: samples the core's speed until it exits."""

    def __init__(self) -> None:
        self._table = {k * 7: k for k in range(_ENTRIES)}
        self._keys = [(k * 2654435761) % _ENTRIES * 7
                      for k in range(_ENTRIES)]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        #: (start, seconds) of each probe
        self.samples: List[Tuple[float, float]] = []

    def _probe(self) -> None:
        table, keys = self._table, self._keys
        start = time.perf_counter()
        offset = int(start * 1e6) % _ENTRIES
        acc = 0
        for i in range(_STEPS):
            key = keys[(i * 40503 + offset) % _ENTRIES]
            acc ^= table[key]
            table[key] = acc & 0xFFFF
        self.samples.append((start, time.perf_counter() - start))

    def _sample(self) -> None:
        self._probe()
        while not self._stop.wait(INTERVAL_S):
            self._probe()

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def speed(self) -> float:
        """The simulator's speed relative to the reference, over the
        whole repetition."""
        return _speed([d for _, d in self.samples])

    def reference_s(self, start: float, end: float) -> float:
        """Reference seconds of the host interval ``[start, end]``
        (``time.perf_counter`` values): its length less the probes run
        inside it, times the speed sampled inside it (or over the whole
        repetition, for an interval too short to hold a probe)."""
        inside = [d for t, d in self.samples if start <= t and t + d <= end]
        speed = _speed(inside) if inside else self.speed()
        return (end - start - sum(inside)) * speed


def _speed(probe_seconds: List[float]) -> float:
    probe_speed = statistics.mean(REFERENCE_S / d for d in probe_seconds)
    return probe_speed ** SENSITIVITY
