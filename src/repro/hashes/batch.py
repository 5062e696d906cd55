"""Hash a whole key population in one vectorised pass.

Building a store hashes every key once per hash function: at the fig11
point that is 60k SipHash-2-4 calls, each running its 64-bit arithmetic
on Python ints.  :func:`hash_many` computes the same values with numpy
kernels instead: it takes the keys ``_CHUNK`` at a time and makes one
kernel call per group of equal-length keys, the group laid out as the
rows of an ``(m, n)`` byte matrix.  Kernels exist for

* ``siphash24`` (every length, default key),
* ``murmur64a`` (every length, seed 0),
* ``xxh3_64`` on 17-128-byte inputs (seed 0) — the simulator's keys are
  24 bytes; the other XXH3 branches are not vectorised.

Every other function or length, and every input on a machine without
numpy, goes through the per-key scalar function, so the results are
bit-identical either way; ``tests/hashes/test_batch.py`` checks both.
The kernels only ever operate on arrays: a numpy *scalar* that wraps
around warns, an array that wraps does not.
"""

from __future__ import annotations

import struct
from itertools import chain
from typing import Callable, Dict, Iterator, List, Sequence

from .murmur import _M as _MURMUR_M
from .murmur import _R as _MURMUR_R
from .murmur import murmur64a
from .siphash import DEFAULT_KEY, siphash24
from .xxhash import _P64_1, _SECRET, xxh3_64
from .xxhash import _read64 as _secret_read64

try:  # pragma: no cover - exercised by the numpy CI leg
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy leg
    _np = None

HAVE_NUMPY = _np is not None

_MASK = (1 << 64) - 1

#: keys per kernel call.  Each temporary array then holds 32 KB, and the
#: allocator reuses that scratch from one call to the next; one call over
#: all 60k fig11 keys left ~8 MB of freed temporaries in the resident set.
_CHUNK = 4096


def _u64(value: int):
    return _np.uint64(value)


def _rotl(x, b: int):
    return (x << _u64(b)) | (x >> _u64(64 - b))


def _words(rows, width: int):
    """The little-endian u64 lanes of ``rows``, zero-padded to
    ``width`` bytes (a multiple of 8): shape ``(m, width // 8)``."""
    m, n = rows.shape
    padded = _np.zeros((m, width), dtype=_np.uint8)
    padded[:, :n] = rows
    return padded.view("<u8")


def _read64(rows, off: int):
    """The u64 at byte ``off`` of every row."""
    return _np.ascontiguousarray(rows[:, off:off + 8]).view("<u8")[:, 0]


# ---------------------------------------------------------------------------
# SipHash-2-4
# ---------------------------------------------------------------------------

def _sipround(v0, v1, v2, v3):
    v0 = v0 + v1
    v1 = _rotl(v1, 13) ^ v0
    v0 = _rotl(v0, 32)
    v2 = v2 + v3
    v3 = _rotl(v3, 16) ^ v2
    v0 = v0 + v3
    v3 = _rotl(v3, 21) ^ v0
    v2 = v2 + v1
    v1 = _rotl(v1, 17) ^ v2
    v2 = _rotl(v2, 32)
    return v0, v1, v2, v3


def _siphash24(rows):
    m, n = rows.shape
    # the final block carries the tail bytes and ``n & 0xFF`` in its top
    # byte: pad every row to (n // 8 + 1) words and write the length in
    words = _words(rows, (n // 8 + 1) * 8)
    words[:, -1] |= _u64((n & 0xFF) << 56)
    k0, k1 = struct.unpack("<QQ", DEFAULT_KEY)
    v0 = _np.full(m, k0 ^ 0x736F6D6570736575, dtype=_np.uint64)
    v1 = _np.full(m, k1 ^ 0x646F72616E646F6D, dtype=_np.uint64)
    v2 = _np.full(m, k0 ^ 0x6C7967656E657261, dtype=_np.uint64)
    v3 = _np.full(m, k1 ^ 0x7465646279746573, dtype=_np.uint64)
    for j in range(words.shape[1]):
        block = words[:, j]
        v3 = v3 ^ block
        v0, v1, v2, v3 = _sipround(v0, v1, v2, v3)
        v0, v1, v2, v3 = _sipround(v0, v1, v2, v3)
        v0 = v0 ^ block
    v2 = v2 ^ _u64(0xFF)
    for _ in range(4):
        v0, v1, v2, v3 = _sipround(v0, v1, v2, v3)
    return v0 ^ v1 ^ v2 ^ v3


# ---------------------------------------------------------------------------
# MurmurHash64A
# ---------------------------------------------------------------------------

def _murmur64a(rows):
    m, n = rows.shape
    mult = _u64(_MURMUR_M)
    shift = _u64(_MURMUR_R)
    h = _np.full(m, (n * _MURMUR_M) & _MASK, dtype=_np.uint64)
    words = _words(rows, -(-n // 8) * 8)
    for j in range(n // 8):
        k = words[:, j] * mult
        k = k ^ (k >> shift)
        h = (h ^ (k * mult)) * mult
    if n % 8:
        h = (h ^ words[:, -1]) * mult
    h = (h ^ (h >> shift)) * mult
    return h ^ (h >> shift)


# ---------------------------------------------------------------------------
# XXH3-64, 17-128-byte branch
# ---------------------------------------------------------------------------

def _mul128_fold64(a, b):
    """``(a * b) mod 2^64 ^ (a * b) >> 64`` from 32-bit halves."""
    low32 = _u64(0xFFFFFFFF)
    w32 = _u64(32)
    a_lo, a_hi = a & low32, a >> w32
    b_lo, b_hi = b & low32, b >> w32
    lo_lo = a_lo * b_lo
    hi_lo = a_hi * b_lo
    lo_hi = a_lo * b_hi
    hi_hi = a_hi * b_hi
    # cannot overflow: at most 3 * (2^32 - 1) + (2^32 - 1)^2 < 2^64
    cross = (lo_lo >> w32) + (hi_lo & low32) + lo_hi
    upper = (hi_lo >> w32) + (cross >> w32) + hi_hi
    lower = (cross << w32) | (lo_lo & low32)
    return lower ^ upper


def _mix16(rows, off: int, secret_off: int):
    lo = _read64(rows, off) ^ _u64(_secret_read64(_SECRET, secret_off))
    hi = _read64(rows, off + 8) ^ _u64(_secret_read64(_SECRET,
                                                      secret_off + 8))
    return _mul128_fold64(lo, hi)


def _xxh3_17to128(rows):
    m, n = rows.shape
    acc = _np.full(m, (n * _P64_1) & _MASK, dtype=_np.uint64)
    for i in reversed(range((n - 1) // 32 + 1)):
        acc = acc + _mix16(rows, 16 * i, 32 * i)
        acc = acc + _mix16(rows, n - 16 * (i + 1), 32 * i + 16)
    acc = acc ^ (acc >> _u64(37))
    acc = acc * _u64(0x165667919E3779F9)
    return acc ^ (acc >> _u64(32))


def _kernel(func: Callable[[bytes], int], length: int):
    """The kernel computing ``func`` over ``(m, length)`` uint8 rows as
    ``(m,)`` uint64, or None where the scalar function must run."""
    if func is siphash24:
        return _siphash24
    if func is murmur64a:
        return _murmur64a
    if func is xxh3_64 and 17 <= length <= 128:
        return _xxh3_17to128
    return None


def hash_many(func: Callable[[bytes], int],
              keys: Sequence[bytes]) -> Iterator[int]:
    """``func(key)`` for each key in order, vectorised where a kernel
    exists; the values are produced one chunk at a time.

    ``func`` is called with its default key/seed, as
    :class:`repro.hashes.registry.HashSpec` calls it.
    """
    if not HAVE_NUMPY:
        return map(func, keys)
    return chain.from_iterable(
        _hash_chunk(func, keys[start:start + _CHUNK])
        for start in range(0, len(keys), _CHUNK))


def _hash_chunk(func: Callable[[bytes], int],
                keys: Sequence[bytes]) -> List[int]:
    groups: Dict[int, List[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(len(key), []).append(i)
    out = [0] * len(keys)
    for length, indices in groups.items():
        group = [keys[i] for i in indices]
        kernel = _kernel(func, length)
        if kernel is None:
            values = [func(key) for key in group]
        else:
            rows = _np.frombuffer(b"".join(group), dtype=_np.uint8)
            values = kernel(rows.reshape(len(group), length)).tolist()
        for i, value in zip(indices, values):
            out[i] = value
    return out
