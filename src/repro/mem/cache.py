"""A generic set-associative, write-allocate cache model with LRU.

The model tracks only presence of line addresses (tags), not contents;
the simulator carries real data in Python objects and uses the caches for
timing alone.  Each set is an ``OrderedDict`` used as an LRU list:
``move_to_end`` on hit, ``popitem(last=False)`` on eviction.  This is the
fastest pure-Python structure for the job and keeps the per-access cost
to a couple of dict operations.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from ..errors import ConfigError
from ..params import CacheParams


class Cache:
    """One level of a set-associative cache, indexed by physical line address."""

    def __init__(self, params: CacheParams) -> None:
        params.validate()
        self.params = params
        self.name = params.name
        self.latency = params.latency
        self._ways = params.ways
        self._num_sets = params.num_sets
        self._set_mask = self._num_sets - 1
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self._num_sets)]
        self.hits = 0
        self.misses = 0

    # -- core operations -------------------------------------------------

    def lookup(self, line_addr: int, update_lru: bool = True) -> bool:
        """Probe the cache for ``line_addr``; returns True on hit."""
        s = self._sets[line_addr & self._set_mask]
        if line_addr in s:
            if update_lru:
                s.move_to_end(line_addr)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, line_addr: int) -> Optional[int]:
        """Fill ``line_addr``; returns the evicted line address, if any."""
        s = self._sets[line_addr & self._set_mask]
        if line_addr in s:
            s.move_to_end(line_addr)
            return None
        victim = None
        if len(s) >= self._ways:
            victim, _ = s.popitem(last=False)
        s[line_addr] = None
        return victim

    def contains(self, line_addr: int) -> bool:
        """Presence check with no LRU update and no stat counting."""
        return line_addr in self._sets[line_addr & self._set_mask]

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line if present; returns True if it was present."""
        s = self._sets[line_addr & self._set_mask]
        if line_addr in s:
            del s[line_addr]
            return True
        return False

    def flush(self) -> None:
        """Empty the cache (used by resize syscalls and context switches)."""
        for s in self._sets:
            s.clear()

    # -- introspection -----------------------------------------------------

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def set_contents(self, set_index: int) -> List[int]:
        """Return the line addresses in one set, LRU first (for tests)."""
        if not 0 <= set_index < self._num_sets:
            raise ConfigError(f"set index {set_index} out of range")
        return list(self._sets[set_index].keys())

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cache({self.name}, {self.params.size_bytes >> 10}KiB, "
            f"{self._ways}-way, {self._num_sets} sets)"
        )
