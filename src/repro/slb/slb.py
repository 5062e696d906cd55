"""The SLB software cache: 7-way cache table plus a 4x log table.

Geometry per the paper's Section IV-A:

* **cache table** — retains the VAs of the most frequently accessed
  records; 7-way set associative.  Each 16-byte entry packs a partial
  hash signature, the record VA and a small frequency counter, so a
  7-way set spans 112 bytes (two cache lines).
* **log table** — access-frequency counters for admission, four times as
  many entries as the cache table.

Per table entry SLB therefore consumes 16 + 4x6 = 40 bytes against
STLT's 16 — the 2.5x space overhead stated in the caption of Fig. 14.

Both tables live in *user* memory: every probe and update is a normal
timed memory access through the TLBs.  Admission: a missing key whose
log-table frequency reaches the minimum frequency resident in its target
set replaces that minimum entry.  Counters age by periodic halving so the
cache can track workload drift (the latest distribution).
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import ConfigError
from ..hashes.registry import HashSpec
from ..mem.hierarchy import MemorySystem
from ..mem.address_space import AddressSpace
from ..mem.kernels import matching_indices
from ..mem.types import AccessKind

CACHE_ENTRY_BYTES = 16
CACHE_WAYS = 7
LOG_ENTRY_BYTES = 6
LOG_RATIO = 4

_SIG_SHIFT = 48  # signature bits taken from the top of the 64-bit hash
_SIG_MASK = 0xFFFF


class SLBCache:
    """Software cache table + log table over simulated memory."""

    #: halve all frequencies every this many lookups (aging)
    AGING_PERIOD = 1 << 16

    def __init__(
        self,
        space: AddressSpace,
        mem: MemorySystem,
        num_entries: int,
        fast_hash: HashSpec,
    ) -> None:
        if num_entries < CACHE_WAYS:
            raise ConfigError("SLB needs at least one full set")
        self.mem = mem
        self.fast_hash = fast_hash
        self.num_entries = num_entries
        self.num_sets = num_entries // CACHE_WAYS
        self.log_entries = num_entries * LOG_RATIO

        self.table_va = space.alloc_region(num_entries * CACHE_ENTRY_BYTES)
        self.log_va = space.alloc_region(self.log_entries * LOG_ENTRY_BYTES)

        n = self.num_sets * CACHE_WAYS
        self._sigs: List[int] = [-1] * n
        self._vas: List[int] = [0] * n
        self._freqs: List[int] = [0] * n
        self._log: List[int] = [0] * self.log_entries

        self.lookups = 0
        self.hits = 0
        self.admissions = 0
        self.rejections = 0

    # -- geometry ---------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        """Total space of both tables (the 2.5x of Fig. 14)."""
        return (
            self.num_entries * CACHE_ENTRY_BYTES
            + self.log_entries * LOG_ENTRY_BYTES
        )

    def _set_of(self, h: int) -> int:
        return (h >> 12) % self.num_sets

    @staticmethod
    def _sig_of(h: int) -> int:
        return (h >> _SIG_SHIFT) & _SIG_MASK

    def _set_va(self, set_index: int) -> int:
        return self.table_va + set_index * CACHE_WAYS * CACHE_ENTRY_BYTES

    # -- operations ---------------------------------------------------------

    def hash_key(self, key: bytes) -> int:
        """Charge and compute the fast-path hash (shared with STLT)."""
        self.mem.tick(self.fast_hash.cost_cycles(len(key)))
        return self.fast_hash(key)

    def probe(self, h: int) -> Optional[int]:
        """Timed cache-table probe; returns the record VA or None."""
        self.lookups += 1
        if self.lookups % self.AGING_PERIOD == 0:
            self._age()
        set_index = self._set_of(h)
        sig = self._sig_of(h)
        base = set_index * CACHE_WAYS
        match = None
        for way in range(CACHE_WAYS):
            if self._sigs[base + way] == sig:
                match = way
                break
        # the software scan walks entries in order and stops at the
        # match, so only the prefix of the set is actually loaded
        scanned_ways = CACHE_WAYS if match is None else match + 1
        self.mem.access(self._set_va(set_index),
                        scanned_ways * CACHE_ENTRY_BYTES,
                        kind=AccessKind.SLB)
        if match is None:
            return None
        self._freqs[base + match] += 1
        # frequency update store: the line is hot after the scan
        self.mem.access(
            self._set_va(set_index) + match * CACHE_ENTRY_BYTES,
            8, write=True, kind=AccessKind.SLB,
        )
        self.hits += 1
        return self._vas[base + match]

    def record_miss(self, h: int, record_va: int) -> None:
        """Log the miss and possibly admit the record (timed)."""
        log_index = h % self.log_entries
        # read-modify-write of the log counter
        log_entry_va = self.log_va + log_index * LOG_ENTRY_BYTES
        self.mem.access(log_entry_va, LOG_ENTRY_BYTES, kind=AccessKind.SLB)
        self._log[log_index] += 1
        self.mem.access(log_entry_va, LOG_ENTRY_BYTES, write=True,
                        kind=AccessKind.SLB)

        set_index = self._set_of(h)
        base = set_index * CACHE_WAYS
        victim = min(range(CACHE_WAYS), key=lambda w: self._freqs[base + w])
        if self._log[log_index] < self._freqs[base + victim]:
            self.rejections += 1
            return
        # admit: overwrite the least frequently used entry
        self._sigs[base + victim] = self._sig_of(h)
        self._vas[base + victim] = record_va
        self._freqs[base + victim] = self._log[log_index]
        self.mem.access(
            self._set_va(set_index) + victim * CACHE_ENTRY_BYTES,
            CACHE_ENTRY_BYTES, write=True, kind=AccessKind.SLB,
        )
        self.admissions += 1

    def prefill(self, h: int, record_va: int) -> bool:
        """Untimed steady-state install of one entry (build-time warm-up).

        Fills an empty way if the set has one, otherwise replaces the
        entry with the lowest frequency, mirroring what long-run
        admission converges to.  Returns True when the entry resides in
        the table afterwards.
        """
        set_index = self._set_of(h)
        base = set_index * CACHE_WAYS
        sig = self._sig_of(h)
        victim = None
        for way in range(CACHE_WAYS):
            if self._sigs[base + way] in (-1, sig):
                victim = way
                break
        if victim is None:
            victim = min(range(CACHE_WAYS),
                         key=lambda w: self._freqs[base + w])
            if self._freqs[base + victim] > 1:
                return False
        self._sigs[base + victim] = sig
        self._vas[base + victim] = record_va
        self._freqs[base + victim] = 1
        return True

    def invalidate_va(self, record_va: int) -> int:
        """Drop entries pointing at a moved/deleted record (untimed scan).

        The full-table scan runs through the bulk kernel (vectorised
        when numpy is available); the signature check filters out empty
        slots whose VA field happens to equal ``record_va``.
        """
        dropped = 0
        for i in matching_indices(self._vas, record_va):
            if self._sigs[i] != -1:
                self._sigs[i] = -1
                self._vas[i] = 0
                self._freqs[i] = 0
                dropped += 1
        return dropped

    def _age(self) -> None:
        self._freqs = [f >> 1 for f in self._freqs]
        self._log = [f >> 1 for f in self._log]

    # -- stats -------------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def miss_rate(self) -> float:
        return 1.0 - self.hit_rate if self.lookups else 0.0

    def reset_stats(self) -> None:
        self.lookups = 0
        self.hits = 0
