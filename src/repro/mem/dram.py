"""Main-memory timing with a serialised-channel contention model.

Table III gives a 45 ns unloaded latency.  On top of that we model a
single memory channel on which every line transfer (demand or prefetch)
occupies ``service_cycles``.  Requests arriving while the channel is busy
queue behind it.  This is the mechanism by which inaccurate prefetchers
hurt performance in our reproduction of Fig. 19 (right): VLDP's extra
traffic inflates the queueing delay seen by demand misses, matching the
paper's observation that 1.54x extra accesses increased memory access
latency by 140%.
"""

from __future__ import annotations

from ..params import DRAMParams


class DRAM:
    """Single-channel DRAM with fixed latency plus queueing."""

    def __init__(self, params: DRAMParams) -> None:
        self.params = params
        self.latency = params.latency_cycles
        self.service = params.service_cycles
        self._channel_free_at = 0
        self.accesses = 0
        self.queue_cycles = 0
        #: cycles the channel spent transferring lines (busy time); the
        #: busy *fraction* is this over elapsed cycles and is the direct
        #: observable of cross-core channel contention
        self.busy_cycles = 0
        #: worst queueing delay any single request has seen
        self.max_queue_cycles = 0

    def access(self, now: int, is_prefetch: bool = False) -> int:
        """Perform one line transfer starting no earlier than cycle ``now``.

        Returns the latency observed by the requester: queueing delay plus
        the unloaded access latency.  Prefetches pay the same cost but the
        caller typically does not add their latency to program time.
        """
        start = self._channel_free_at if self._channel_free_at > now else now
        queue = start - now
        self._channel_free_at = start + self.service
        self.accesses += 1
        self.queue_cycles += queue
        self.busy_cycles += self.service
        if queue > self.max_queue_cycles:
            self.max_queue_cycles = queue
        return queue + self.latency

    @property
    def channel_free_at(self) -> int:
        return self._channel_free_at

    def reset_stats(self) -> None:
        self.accesses = 0
        self.queue_cycles = 0
        self.busy_cycles = 0
        self.max_queue_cycles = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DRAM(latency={self.latency}cy, service={self.service}cy)"
