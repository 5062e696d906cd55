"""Hash functions used by the paper's evaluation (Table IV).

All functions are real implementations operating on ``bytes`` and
returning unsigned 64-bit integers.  ``siphash24`` and ``xxh64`` are
verified against published reference vectors in the test suite; the
outputs of ``murmur64a``, ``xxh3_64`` (an XXH3 variant with a derived
secret) and ``djb2`` are pinned there.

The registry wraps each function in a :class:`HashSpec` that carries
the *cycle-cost model* (the simulator charges `base + per_byte * len`
cycles per hash invocation, calibrated to preserve the published
ordering: SipHash is the expensive attack-resistant default, xxh3 the
cheap fast-path choice) and a memo of computed values.  Building a
store primes that memo over the whole key population in one call
(:meth:`HashSpec.prime`), which :mod:`repro.hashes.batch` computes with
numpy kernels where it has one; the per-key calls of the simulation
then hit the memo.  Either way the values are bit-identical to the
per-key functions.
"""

from .djb2 import djb2
from .murmur import murmur64a
from .registry import HASH_FUNCTIONS, HashSpec, get_hash, hash_cost_cycles
from .siphash import siphash24
from .xxhash import xxh3_64, xxh64

__all__ = [
    "HASH_FUNCTIONS",
    "HashSpec",
    "djb2",
    "get_hash",
    "hash_cost_cycles",
    "murmur64a",
    "siphash24",
    "xxh3_64",
    "xxh64",
]
