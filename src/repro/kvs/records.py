"""Key-value records in simulated memory.

A record is one contiguous allocation: a 16-byte header (the robj-style
type/refcount/encoding word plus the value length), the key bytes, and
the value bytes.  Keys and values of arbitrary sizes are supported — the
very capability the paper's address-centric approach has over the
value-centric HTA/SDC caches, which require a record to fit in one cache
line.

:class:`RecordStore` owns all records of a run and provides the timed
access helpers the index structures and front-ends share:

* ``access_for_compare`` — read header + key (the validation step ③ of
  Fig. 4 and the per-node compare of every index traversal);
* ``access_value``       — read the value bytes of a GET;
* ``write_value``        — overwrite the value in place (SET to an
  existing key).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import KVSError
from ..mem.allocator import BumpAllocator
from ..mem.hierarchy import MemorySystem
from ..mem.types import AccessKind

RECORD_HEADER_BYTES = 16


@dataclass
class Record:
    """One key-value record at a fixed virtual address."""

    va: int
    key: bytes
    value_size: int
    header_bytes: int = RECORD_HEADER_BYTES
    #: generation counter bumped when the record is moved (Sec. III-F)
    moves: int = 0
    #: Redis-style out-of-line value (robj + data in its own allocation);
    #: None for the kernel benchmarks whose value is embedded in the record
    external_value_va: Optional[int] = None

    @property
    def total_size(self) -> int:
        """Bytes of the record allocation itself (excludes external values)."""
        if self.external_value_va is not None:
            return self.header_bytes + len(self.key)
        return self.header_bytes + len(self.key) + self.value_size

    @property
    def key_region(self) -> "tuple[int, int]":
        return self.va, self.header_bytes + len(self.key)

    @property
    def value_va(self) -> int:
        if self.external_value_va is not None:
            return self.external_value_va
        return self.va + self.header_bytes + len(self.key)


@dataclass
class RecordStore:
    """Allocator-backed collection of live records."""

    alloc: BumpAllocator
    mem: MemorySystem
    by_va: Dict[int, Record] = field(default_factory=dict)

    def create(self, key: bytes, value_size: int) -> Record:
        if not key:
            raise KVSError("record keys must be non-empty")
        if value_size < 0:
            raise KVSError("value size cannot be negative")
        size, = self.allocation_sizes(len(key), value_size)
        va = self.alloc.alloc(size)
        record = Record(va=va, key=key, value_size=value_size)
        self.by_va[va] = record
        return record

    def create_external(self, key: bytes, value_size: int) -> Record:
        """Redis layout: dictEntry+sds key in one allocation, the value
        (robj header + data) in another."""
        if not key:
            raise KVSError("record keys must be non-empty")
        if value_size < 0:
            raise KVSError("value size cannot be negative")
        record_size, value_bytes = self.allocation_sizes(
            len(key), value_size, external=True)
        va = self.alloc.alloc(record_size)
        value_va = self.alloc.alloc(value_bytes)
        record = Record(
            va=va, key=key, value_size=value_size,
            external_value_va=value_va + RECORD_HEADER_BYTES,
        )
        self.by_va[va] = record
        return record

    @staticmethod
    def allocation_sizes(key_len: int, value_size: int,
                         external: bool = False) -> List[int]:
        """Bytes of each allocation :meth:`create` (one) or
        :meth:`create_external` (record, then value) makes per record."""
        if external:
            return [RECORD_HEADER_BYTES + key_len,
                    RECORD_HEADER_BYTES + value_size]
        return [RECORD_HEADER_BYTES + key_len + value_size]

    def create_many(self, keys: Sequence[bytes], value_size: int,
                    vas: Sequence[int],
                    value_vas: Optional[Sequence[int]] = None
                    ) -> List[Record]:
        """Records for ``keys`` at VAs the build allocated in bulk.

        ``vas`` (and, for the Redis layout, ``value_vas``) come from one
        :meth:`~repro.mem.allocator.BumpAllocator.alloc_many` over
        :meth:`allocation_sizes`, so every key must have one length.
        """
        if not keys:
            return []
        key_len = len(keys[0])
        if not key_len or any(len(key) != key_len for key in keys):
            raise KVSError("bulk-built records need non-empty keys of one "
                           "length")
        if value_size < 0:
            raise KVSError("value size cannot be negative")
        if value_vas is None:
            records = [Record(va, key, value_size)
                       for key, va in zip(keys, vas)]
        else:
            records = [Record(va, key, value_size,
                              external_value_va=value_va + RECORD_HEADER_BYTES)
                       for key, va, value_va in zip(keys, vas, value_vas)]
        self.by_va.update(zip(vas, records))
        return records

    def destroy(self, record: Record) -> None:
        if record.va not in self.by_va:
            raise KVSError(f"record at {record.va:#x} is not live")
        del self.by_va[record.va]
        self.alloc.free(record.va)
        if record.external_value_va is not None:
            self.alloc.free(record.external_value_va - RECORD_HEADER_BYTES)

    def move(self, record: Record, new_value_size: Optional[int] = None) -> int:
        """Reallocate a record (e.g. the value grew); returns the old VA.

        The paper's record-movement protocol requires the application to
        refresh the STLT afterwards; the front-end does that by issuing
        an ``insertSTLT`` for the new VA.
        """
        old_va = record.va
        del self.by_va[old_va]
        if new_value_size is not None:
            record.value_size = new_value_size
        # realloc semantics: the new allocation exists before the old one
        # is released, so the record always lands at a fresh VA
        new_va = self.alloc.alloc(record.total_size)
        self.alloc.free(old_va)
        record.va = new_va
        record.moves += 1
        self.by_va[new_va] = record
        return old_va

    # -- timed access helpers -------------------------------------------

    def access_for_compare(self, record: Record) -> int:
        """Read header + key bytes (validation / compare); returns cycles."""
        va, span = record.key_region
        return self.mem.access(va, span, kind=AccessKind.RECORD).cycles

    def access_value(self, record: Record) -> int:
        """Read the value bytes of a GET; returns cycles.

        External (Redis-style) values read their robj header too — the
        extra pointer hop Redis pays on every GET.
        """
        if record.value_size == 0:
            return 0
        if record.external_value_va is not None:
            return self.mem.access(
                record.external_value_va - record.header_bytes,
                record.header_bytes + record.value_size,
                kind=AccessKind.VALUE,
            ).cycles
        return self.mem.access(
            record.value_va, record.value_size, kind=AccessKind.VALUE
        ).cycles

    def write_value(self, record: Record) -> int:
        """Overwrite the value in place (SET to existing key)."""
        if record.value_size == 0:
            return 0
        return self.mem.access(
            record.value_va, record.value_size, write=True,
            kind=AccessKind.VALUE,
        ).cycles

    def __len__(self) -> int:
        return len(self.by_va)
